"""Series combinatorics for the general linear and unitary groups: cuspidal
pairs, the partition of unipotent characters into series by their cores, the
wreath degree of a member's series image (read off its hooks), and the
predicted Hecke parameters.

A cuspidal pair for GL_n at level e is encoded by an e-core of size n - a*e;
the pairs with a = 0 are cuspidal singletons.  The members of a pair's series
are the partitions of n with that e-core, and the series map e_quotient_charged
sends a member to its charged e-quotient taken at charge e + len(core).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import factorial, prod

from .partitions import (
    Partition,
    core_exponents,
    e_core,
    hook_lengths,
    is_e_core,
    partitions_of,
)


class CuspidalPairGL(namedtuple("CuspidalPairGL", "n e a core")):
    """A level-e cuspidal pair for GL_n: an e-core of size n - a*e."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it: checked too

    def __new__(cls, n: int, e: int, a: int, core: Partition):
        if a < 0 or core.size + a * e != n:
            raise ValueError("sizes of core and torus part do not add up")
        if not is_e_core(core, e):
            raise ValueError(f"{core.parts} is not a {e}-core")
        return tuple.__new__(cls, (n, e, a, core))


# one Hecke parameter, sign * x^exponent with sign the integer 1 or -1
HeckeParam = namedtuple("HeckeParam", "sign exponent")
# parameter data of a specialized Ariki-Koike algebra: one parameter per
# cyclic-generator eigenvalue and two for the symmetric generators
HeckeSpecialization = namedtuple("HeckeSpecialization", "tau_params sigma_params")


@lru_cache(maxsize=None)
def hc_pairs(n: int, e: int) -> tuple[CuspidalPairGL, ...]:
    """All cuspidal pairs for GL_n at level e, in lexicographic order of cores.

    The cores are the e-cores of the partitions of n, which are all e-cores
    of size n - a*e, a >= 0: such a core is the e-core of itself with a*e
    boxes added to its first row.
    """
    if n < 1 or e < 1:
        raise ValueError("n and e must be >= 1")
    cores = sorted({e_core(p, e) for p in partitions_of(n)})
    return tuple(CuspidalPairGL(n, e, (n - c.size) // e, c) for c in cores)


def hc_partition(n: int, e: int) -> dict[CuspidalPairGL, tuple[Partition, ...]]:
    """Partition of the partitions of n into series, keyed by cuspidal pair.

    Members are in sorted order, lexicographic in their parts.  Each
    member is filed under the cached pair of its e-core, so no pair is built
    per partition.
    """
    pairs = hc_pairs(n, e)
    by_core: dict[Partition, list[Partition]] = {pair.core: [] for pair in pairs}
    for p in reversed(partitions_of(n)):
        by_core[e_core(p, e)].append(p)
    return {pair: tuple(by_core[pair.core]) for pair in pairs}


def wreath_degree(p: Partition, e: int) -> int:
    """Degree of the wreath-product character indexed by p's e-quotient: a!
    over the product of the quotient's hook lengths.  The quotient's hooks
    are p's hooks divisible by e, each divided by e (James-Kerber 2.7.40), so
    the degree is read off hook_lengths(p) and the quotient is not built.
    """
    if e < 1:
        raise ValueError("e must be >= 1")
    hooks = [h // e for h in hook_lengths(p) if h % e == 0]
    degree, rest = divmod(factorial(len(hooks)), prod(hooks))
    if rest:
        raise ArithmeticError("hook formula did not divide evenly")
    return degree


GL = "gl"
GU = "gu"


@lru_cache(maxsize=None)
def specialization(pair: CuspidalPairGL, variant: str = GL) -> HeckeSpecialization:
    """Predicted Hecke parameters of a cuspidal pair (memoised).

    The cyclic-generator parameters are x to the core exponents and the
    symmetric-generator parameters are (1, -x^e); the unitary variant is the
    same expression at -x (Ennola duality), which puts the sign -1 on x^k
    exactly when k is odd.  Pairs with a = 0 have no Hecke data.
    """
    if pair.a < 1:
        raise ValueError("cuspidal singletons carry no Hecke parameters")
    if variant not in (GL, GU):
        raise ValueError(f"unknown variant {variant!r}")

    def param(sign: int, k: int) -> HeckeParam:
        """sign * x^k, read at -x in the unitary variant."""
        return HeckeParam(-sign if variant == GU and k % 2 else sign, k)

    tau = tuple(param(1, a) for a in core_exponents(pair.core, pair.e))
    return HeckeSpecialization(tau, (param(1, 0), param(-1, pair.e)))
