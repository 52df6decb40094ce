"""The abacore benchmark: time `abacore verify` suites end to end, in fresh
processes, and gate every run on the exact output of the seed commit.
Times are CPU seconds rescaled to a fixed reference speed by a probe that
shares the measured CPU (see probe.py).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, as a table

Run from anywhere; the program is built from `src/` beside this directory.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the exit code is 0 only when every
suite invocation matched the reference.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
PROBE = HERE / "probe.py"
REFERENCE = HERE / "reference.json"

# Each entry is one `abacore verify` invocation, run in its own process.
# `{seed}` is replaced by the bench seed modulo ROUNDTRIP_SEEDS, the number of
# roundtrip seeds whose output the reference holds.
WORKLOADS = {
    "levelrank-sweep": [["thm2", "--max-n", "13"]],
    "blocks-sweep": [["thm1", "--max-n", "14"]],
    "degree-sweep": [["cuspidal", "--max-n", "14"], ["degmod", "--max-n", "12"]],
    "harness-defaults": [
        ["thm2"],
        ["thm1"],
        ["content-lemma"],
        ["content-prop"],
        ["cuspidal"],
        ["degmod"],
        ["roundtrip", "--seed", "{seed}"],
    ],
}
ROUNDTRIP_SEEDS = 64

SETUP_RUNS = 6
CHILD_TIMEOUT_S = 150.0
GATED = ("exit", "sha256", "cases_checked", "pass", "failures")

END_TO_END = {
    "cpu_s": "s",
    "cpu_s_max": "s",
    "cases_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Probe kernels per probe CPU second that define the reference speed.  The
# value is a fixed convention: on the 2.1 GHz Xeon vCPUs the benchmark was
# written on, the probe does 700-1,500 a second beside a child, as neighbours
# on the host come and go.
REFERENCE_RATE = 1000.0
PROBE_WAIT_S = 10.0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one repetition of a workload."""
    return [
        ["verify", *(a.format(seed=seed % ROUNDTRIP_SEEDS) for a in suite), "--stream"]
        for suite in WORKLOADS[workload]
    ]


class Probe:
    """probe.py running on the measuring CPU for the length of a run.

    Every child of the run is pinned to that CPU too, so the probe's spells
    of work interleave with the child's, and the probe's kernels per CPU
    second give the speed of that CPU while the child ran.  The speed of a
    shared VM's CPU drifts by tens of percent over seconds to minutes; the
    child's CPU time times this speed does not."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples: list[tuple[float, float, int]] = []
        self._pending = b""
        self.proc = subprocess.Popen(
            [sys.executable, str(PROBE)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            preexec_fn=self.pin,
        )
        self.fd = self.proc.stdout.fileno()
        try:
            self.wait_past(_now())
        except BaseException:
            self.close()
            raise

    def pin(self) -> None:
        os.sched_setaffinity(0, {self.cpu})

    def feed(self, chunk: bytes) -> None:
        *lines, self._pending = (self._pending + chunk).split(b"\n")
        for line in lines:
            mono, cpu, done = line.split()
            self.samples.append((float(mono), float(cpu), int(done)))

    def wait_past(self, moment: float) -> None:
        """Read samples until one taken at or after `moment` is in."""
        with selectors.DefaultSelector() as sel:
            sel.register(self.fd, selectors.EVENT_READ)
            while not self.samples or self.samples[-1][0] < moment:
                if not sel.select(timeout=PROBE_WAIT_S):
                    raise TimeoutError(f"speed probe silent for {PROBE_WAIT_S} s")
                chunk = os.read(self.fd, 1 << 16)
                if not chunk:
                    raise RuntimeError("speed probe exited")
                self.feed(chunk)

    def speed(self, start: float, end: float) -> float:
        """The measuring CPU's speed from `start` to `end`, relative to the
        reference speed, from the probe samples that bracket the interval."""
        self.wait_past(end)
        first = next(
            (s for s in reversed(self.samples) if s[0] <= start), self.samples[0]
        )
        last = next(s for s in self.samples if s[0] >= end)
        if last[2] == first[2]:
            raise RuntimeError("speed probe did no work in the interval")
        return (last[2] - first[2]) / (last[1] - first[1]) / REFERENCE_RATE

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def spawn(child_args: list[str], probe: Probe | None = None) -> dict:
    """Run child.py with the given arguments in a fresh interpreter, pinned
    to the probe's CPU when there is a probe.

    Returns the spawn and exit times, the child's user+sys CPU time, its exit
    code, its stdout and its report (None if it sent none)."""
    report_r, report_w = os.pipe()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = _now()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), "--report-fd", str(report_w), *child_args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        pass_fds=(report_w,),
        preexec_fn=probe.pin if probe else None,
    )
    os.close(report_w)
    stdout_fd = proc.stdout.fileno()
    buffers = {stdout_fd: bytearray(), report_r: bytearray()}
    try:
        with selectors.DefaultSelector() as sel:
            for fd in buffers:
                sel.register(fd, selectors.EVENT_READ)
            if probe:
                sel.register(probe.fd, selectors.EVENT_READ)
            open_fds = set(buffers)
            while open_fds:
                ready = sel.select(timeout=max(0.0, start + CHILD_TIMEOUT_S - _now()))
                if not ready:
                    raise TimeoutError(f"child {child_args} ran over {CHILD_TIMEOUT_S} s")
                for key, _ in ready:
                    chunk = os.read(key.fd, 1 << 16)
                    if key.fd not in buffers:
                        if not chunk:
                            raise RuntimeError("speed probe exited")
                        probe.feed(chunk)
                    elif chunk:
                        buffers[key.fd] += chunk
                    else:
                        sel.unregister(key.fd)
                        open_fds.discard(key.fd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        os.close(report_r)
    end = _now()
    raw_report = bytes(buffers[report_r])
    return {
        "start": start,
        "end": end,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "exit": proc.returncode,
        "stdout": bytes(buffers[stdout_fd]),
        "report": json.loads(raw_report) if raw_report else None,
    }


def run_invocation(
    cli_args: list[str], trace: bool = False, probe: Probe | None = None
) -> dict:
    """Run one CLI invocation and summarise what the gate compares.  With a
    probe, `speed` is the measuring CPU's speed while it ran."""
    mode = ["run", "--trace"] if trace else ["run"]
    child = spawn(mode + cli_args, probe)
    out = child["stdout"]
    try:
        summary = json.loads(out.rstrip(b"\n").rsplit(b"\n", 1)[-1])
        cases, passed, failures = (
            summary["cases_checked"], summary["pass"], len(summary["failures"])
        )
    except (ValueError, KeyError, TypeError):
        cases = passed = failures = None
    report = child["report"] or {}
    return {
        "command": " ".join(cli_args),
        "exit": child["exit"],
        "sha256": hashlib.sha256(out).hexdigest(),
        "cases_checked": cases,
        "pass": passed,
        "failures": failures,
        "wall_s": child["wall_s"],
        "cpu_s": child["cpu_s"],
        "speed": probe.speed(child["start"], child["end"]) if probe else None,
        "hwm_kb": report.get("hwm_kb"),
        "trace": report.get("trace"),
        "reported": child["report"] is not None,
    }


def gate(outcome: dict, reference: dict) -> list[str]:
    """Differences between an invocation's outcome and its reference entry;
    empty when they agree exactly."""
    expected = reference["invocations"].get(outcome["command"])
    if expected is None:
        return [f"{outcome['command']}: no reference entry"]
    problems = [
        f"{outcome['command']}: {key} {outcome[key]!r} != reference {expected[key]!r}"
        for key in GATED
        if outcome[key] != expected[key]
    ]
    if not outcome["reported"]:
        problems.append(f"{outcome['command']}: child sent no report")
    return problems


def measure_setup(probe: Probe) -> float:
    """CPU seconds a fresh interpreter takes to import abacore.cli and build
    its parser, not yet rescaled by the CPU's speed."""
    child = spawn(["setup"], probe)
    if child["exit"] != 0 or child["report"] is None:
        raise RuntimeError("set-up child failed")
    return child["report"]["ready_cpu_s"]


class Run:
    """The invocations of one benchmark run and their gate verdicts."""

    def __init__(self, reference: dict, probe: Probe | None = None):
        self.reference = reference
        self.probe = probe
        self.outcomes: list[dict] = []
        self.problems: list[str] = []

    def repetition(self, workload: str, seed: int, trace: bool = False) -> list[dict]:
        rep = []
        for cli_args in invocations(workload, seed):
            outcome = run_invocation(cli_args, trace, self.probe)
            problems = gate(outcome, self.reference)
            speed = f", speed {outcome['speed']:.3f}" if self.probe else ""
            print(
                f"{'traced ' if trace else ''}{outcome['command']}: "
                f"wall {outcome['wall_s']:.3f} s, cpu {outcome['cpu_s']:.3f} s{speed}, "
                f"{'MISMATCH' if problems else 'ok'}",
                file=sys.stderr,
            )
            self.problems += problems
            self.outcomes.append(outcome | {"ok": not problems})
            rep.append(outcome)
        return rep

    @property
    def failed(self) -> int:
        return sum(not o["ok"] for o in self.outcomes)


def rescaled_cpu_s(rep: list[dict]) -> float:
    """CPU seconds of a repetition's processes at the reference speed."""
    return sum(o["cpu_s"] * o["speed"] for o in rep)


def end_to_end(run: Run, workload: str, seed: int, seconds: float) -> dict:
    """Repeat the workload while the next repetition is expected to end
    within `seconds` (at least once), between two blocks of set-ups."""
    probe = run.probe

    def setups() -> list[float]:
        start = _now()
        samples = [measure_setup(probe) for _ in range(SETUP_RUNS)]
        speed = probe.speed(start, _now())
        return [sample * speed for sample in samples]

    setup_samples = setups()
    reps = []
    start = _now()
    while True:
        rep = run.repetition(workload, seed)
        reps.append(rep)
        rep_wall = sum(o["wall_s"] for o in rep)
        if _now() - start + rep_wall > seconds:
            break
    setup_samples += setups()
    cpu = [rescaled_cpu_s(rep) for rep in reps]
    cases = sum(o["cases_checked"] or 0 for o in reps[0])
    median = statistics.median(cpu)
    print(
        f"{workload}: {len(reps)} repetitions, {len(setup_samples)} set-ups, "
        f"raw cpu_s {statistics.median(sum(o['cpu_s'] for o in rep) for rep in reps):.4f}, "
        f"raw wall_s {statistics.median(sum(o['wall_s'] for o in rep) for rep in reps):.4f}",
        file=sys.stderr,
    )
    return {
        "cpu_s": median,
        "cpu_s_max": max(cpu),
        "cases_per_s": cases / median,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": max(o["hwm_kb"] or 0 for rep in reps for o in rep) / 1024,
    }


def per_layer(run: Run, workload: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced repetitions while the next pair is
    expected to end within `seconds` (at least one pair).  Each metric is the
    low median over the traced repetitions, and the overhead over the pairs."""
    samples: dict[str, list] = {}
    start = _now()
    while True:
        plain = run.repetition(workload, seed)
        traced = run.repetition(workload, seed, trace=True)
        values = layers.layer_metrics([o["trace"] for o in traced if o["trace"]])
        pair_wall = sum(o["wall_s"] for o in plain + traced)
        values["trace.overhead_frac"] = (
            sum(o["wall_s"] for o in traced) / sum(o["wall_s"] for o in plain) - 1
        )
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
        if _now() - start + pair_wall > seconds:
            break
    return {name: statistics.median_low(values) for name, values in samples.items()}


def metadata() -> dict:
    """Python version, commit, usable CPUs, load average and source line count."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "probe_reference_rate": REFERENCE_RATE,
        "loadavg": os.getloadavg(),
        "src_lines": sum(
            len(path.read_bytes().splitlines()) for path in sorted(SRC.rglob("*.py"))
        ),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    if trace:
        run = Run(reference)
        units = {m["name"]: m["unit"] for m in layers.per_layer_spec()}
        values = per_layer(run, workload, seed, seconds)
    else:
        # The last usable CPU is the measuring CPU; this process keeps off
        # it when there is another.
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, cpus[:-1] or cpus)
        probe = Probe(cpus[-1])
        try:
            run = Run(reference, probe)
            units = END_TO_END
            values = end_to_end(run, workload, seed, seconds)
        finally:
            probe.close()
            os.sched_setaffinity(0, cpus)
    for problem in run.problems:
        print(f"GATE: {problem}", file=sys.stderr)
    return {
        "correct": not run.problems,
        "attempted": len(run.outcomes),
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "abacore" / "cli.py").is_file():
        print(f"error: no abacore sources under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: no reference file {REFERENCE}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())

    print(json.dumps({"metadata": metadata()}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = bench(name, args.seed, args.seconds, bool(args.trace), reference)
        if args.workload == "all":
            for metric, m in results[name]["metrics"].items():
                print(f"{name:18} {metric:44} {m['value']:>14.6g} {m['unit']}")
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
