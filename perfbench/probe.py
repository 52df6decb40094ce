"""Speed probe of the abacore benchmark: a fixed pure-Python kernel that runs
on the same CPU as the process being measured and reports how fast it goes.

    probe.py

Loops until stopped: runs kernels for BUSY_S of its own CPU time, writes one
line `<CLOCK_MONOTONIC s> <own CPU s> <kernels done>` to stdout, then sleeps
IDLE_S.  So it takes about a tenth of its CPU, in short spells spread over
the measured process's run, and kernels per CPU second track the speed of
that CPU over the same interval.  It exits when stdout is closed.

The kernel does the kind of work abacore does (partitions as int tuples,
beta-numbers, residue keys in a dict, hook products, Fraction sums and
polynomial long division on int lists), but it imports nothing from abacore,
so no change to the program changes it.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

BUSY_S = 0.002
IDLE_S = 0.018
SIZE = 10


def _partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k, *rest)


def kernel() -> tuple[int, int, Fraction]:
    """One unit of probe work, about 1 ms on a 2.1 GHz Xeon."""
    mix = 0
    keys: dict[tuple[int, ...], int] = {}
    total = Fraction(0)
    for lam in _partitions(SIZE, SIZE):
        beta = tuple(p - i + len(lam) for i, p in enumerate(lam))
        key = tuple(sorted(b % 3 for b in beta))
        keys[key] = keys.get(key, 0) + 1
        hooks = 1
        for i, p in enumerate(lam):
            for j in range(p):
                hooks *= p - j + sum(1 for q in lam[i + 1:] if q > j)
        total += Fraction(len(lam), hooks % 97 + 1)
        mix ^= hash(key)
    dividend = [(i * 7919) % 13 - 6 for i in range(60)] + [1]
    divisor = [1, 0, 0, 1, 0, 1]
    remainder = list(dividend)
    for k in range(len(dividend) - len(divisor), -1, -1):
        c = remainder[k + len(divisor) - 1]
        if c:
            for j, d in enumerate(divisor):
                remainder[k + j] -= c * d
    return mix + sum(remainder), len(keys), total


def main() -> int:
    done = 0
    try:
        while True:
            start = time.process_time()
            while time.process_time() - start < BUSY_S:
                kernel()
                done += 1
            sys.stdout.write(
                f"{time.clock_gettime(time.CLOCK_MONOTONIC)} {time.process_time()} {done}\n"
            )
            sys.stdout.flush()
            time.sleep(IDLE_S)
    except (BrokenPipeError, KeyboardInterrupt):
        return 0


if __name__ == "__main__":
    sys.exit(main())
