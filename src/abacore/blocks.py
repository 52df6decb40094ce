"""Block combinatorics for specialized Ariki-Koike algebras.

The block key of a charged e-multipartition is the multiset of integers
e*(content + charge) + component over its boxes; blocks at level m compare
this multiset modulo m.  A root key evaluates the Hecke parameters, each
sign * x^k with sign 1 or -1, at a primitive R-th root instead, as integers
mod d = 2R: x^k is 2k and the sign -1 adds R, which keeps sign twists
exact.  Both keys are dense length-d tuples whose entry k counts the
boxes with value content*omega + alpha_j = k mod d: a level-m key takes
d = m, omega = e mod m and alpha_j = core_exponents(core, e)[j] mod m, and
a root key takes the evaluated parameters.  Root keys are evaluated for GU
only: the GL parameters at a primitive m-th root give the level-m values
doubled, so the GL root key is the level key; the GU parameters at a
primitive R-th root, R = ennola_e(m), give them relabelled one to one by
v -> (2 + R)v mod 2R (Ennola duality).  2 + R has order m mod 2R, so the
GU ratio, like the GL one, is 1 exactly where m | e, and both variants
refuse there.  Every grouping reads one side table, which counts GL keys only:
series_blocks, thm1's report and content-prop's member comparisons alike.
The content lemma ties the residue multisets to beta sets, comparing integer
counts on the identity's support, which covers every exponent, and underlies
the equivalence between sharing an m-core and sharing a block.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd

from .hc_series import (
    GL,
    GU,
    CuspidalPairGL,
    HeckeSpecialization,
    hc_pairs,
    specialization,
)
from .partitions import (
    ChargedMultiPartition,
    MultiPartition,
    Partition,
    _abaci,
    _charged,
    _contents,
    core_exponents,
    e_core,
    e_quotient_charged,
    multipartitions_of,
    partitions_of,
    regroup,
)
from .polynomials import ennola_e


class OmegaIsOne(ValueError):
    """The symmetric-generator ratio specialized to 1, where the block
    criterion does not apply: at level m, where m divides e, GL or GU."""


# sorted (value, count) pairs: a residue multiset
Counts = tuple[tuple[int, int], ...]
# a block key mod d: entry k counts the boxes of value k mod d
Key = tuple[int, ...]


def residue_multiset(cmp: ChargedMultiPartition) -> Counts:
    """Box residues e*(content + charge) + component of a charged
    e-multipartition, e = cmp.level, as sorted (value, count) pairs.

    >>> mp = ChargedMultiPartition((Partition(()), Partition((1,))), (0, 0))
    >>> residue_multiset(mp)
    ((1, 1),)
    """
    e = cmp.level
    acc: dict[int, int] = {}
    for j, (p, s) in enumerate(zip(cmp.components, cmp.charges)):
        for content in _contents(p):
            v = e * (content + s) + j
            acc[v] = acc.get(v, 0) + 1
    return tuple(sorted(acc.items()))


def _root_values(
    params: HeckeSpecialization, at_root: int
) -> tuple[int, int, tuple[int, ...]]:
    """(d, omega, alphas): the parameters evaluated at a primitive at_root-th
    root as integers mod d = 2 * at_root, the value k standing for
    exp(2 pi i k / d).  omega is the negated second symmetric parameter (the
    first is 1, as specialization gives it); raises OmegaIsOne when omega is
    0, where the block criterion does not apply."""
    d = 2 * at_root

    def value(sign: int, exponent: int) -> int:
        return (2 * exponent + (at_root if sign < 0 else 0)) % d

    omega = (value(*params.sigma_params[1]) + at_root) % d
    if omega == 0:
        raise OmegaIsOne(f"symmetric ratio is 1 at a {at_root}-th root")
    return d, omega, tuple(value(*t) for t in params.tau_params)


def _level_values(core: Partition, e: int, m: int) -> tuple[int, int, tuple[int, ...]]:
    """(d, omega, alphas) = (m, e % m, core_exponents(core, e) % m): the
    level-m key data of the series of core, for m >= 1."""
    return m, e % m, tuple(a % m for a in core_exponents(core, e))


def _root_counts(
    mp: MultiPartition, d: int, omega: int, alphas: tuple[int, ...]
) -> Key:
    """The length-d tuple whose entry k counts the boxes of mp with value
    (content*omega + alpha) mod d equal to k, alpha the box's component's."""
    counts = [0] * d
    for p, alpha in zip(mp, alphas):
        if p:  # most components are empty: skip their _contents lookup
            for content in _contents(p):
                counts[(content * omega + alpha) % d] += 1
    return tuple(counts)


def series_blocks(
    pair: CuspidalPairGL, m: int, variant: str = GL
) -> tuple[tuple[MultiPartition, ...], ...]:
    """Level-m blocks of a series: GL residue keys, or for GU with a > 0 the
    root keys at R = ennola_e(m), where the sign-twisted parameters hit a
    primitive m-th root, grouped alike from the side table's GL numbers at m
    (ArithmeticError if GU disagrees).  Both variants first refuse where m
    divides e, where both ratios are 1 as 2 + R has order m mod 2R: the
    table takes m = 1 as one block."""
    if variant not in (GL, GU):
        raise ValueError(f"unknown variant {variant!r}")
    if m < 1:
        raise ValueError("m must be >= 1")
    if pair.e % m == 0:
        label = "GU " if variant == GU else ""
        raise OmegaIsOne(f"level {m} {label}blocks are undefined at level e={pair.e}")
    _, numbers, gu_ok = _side_blocks(pair, m)
    if variant == GU and not gu_ok:
        raise ArithmeticError(f"GU keys at {ennola_e(m)} do not group as GL keys at {m}")
    grouped: dict[int, list[MultiPartition]] = {}
    for mp, i in numbers.items():
        grouped.setdefault(i, []).append(mp)
    return tuple(map(tuple, grouped.values()))


# ---------------------------------------------------------------------------
# the content lemma

def check_content_lemma(p: Partition, s: int, e: int) -> bool:
    """Coefficientwise check of the content generating identity at level e:
    (1 - t^-e) times the residue series of the charged e-quotient of |p, s>
    equals the beta-set series of p minus that of its e-core, both at
    charge s.  Both beta sets come from one _abaci call, and the quotient
    is the first of them regrouped at level e.  At e = 1 the quotient is
    |p, s> itself and the 1-core is empty, so this is the level-1 identity.
    Compared as integer counts on the identity's support: the left side is
    nonzero only at the residue values v and at v - e, the right side only
    at beads at or above the lower of the two floors, below which both beta
    sets are full; so every exponent is compared.  Raises ValueError for
    e < 1, from e_core, before any bead map runs.
    """
    abaci = _abaci((p, e_core(p, e)), (s, s))
    quotient = _charged(regroup(abaci[:1], e))
    diff: dict[int, int] = {}
    for v, c in residue_multiset(quotient):
        diff[v] = diff.get(v, 0) + c
        diff[v - e] = diff.get(v - e, 0) - c
    base = min(floor for floor, _ in abaci)
    for sign, (floor, tail) in zip((-1, 1), abaci):
        for k in (*range(base, floor), *tail):
            diff[k] = diff.get(k, 0) + sign
    return not any(diff.values())


# ---------------------------------------------------------------------------
# the series-versus-blocks report

def _side_blocks(pair: CuspidalPairGL, at_root: int) -> tuple[list[int], dict, bool]:
    """The side table of the series of pair at a root: GL block sizes in
    block order, each multipartition's GL block number (blocks numbered by
    first member, nothing sorted) and whether GU agrees: whether the GU value
    at ennola_e(at_root) of each box the series can hold, in any component at
    content -a < c < a, is a one-to-one function of its GL value, so that GU
    keys group as GL keys.  At at_root = 1 every key collapses, and a series
    with a = 0 has one member: either way it is one block on both variants."""
    if at_root == 1 or pair.a == 0:
        return _one_block(pair.e, pair.a)
    mps = multipartitions_of(pair.e, pair.a)
    d, omega, alphas = _level_values(pair.core, pair.e, at_root)
    du, omega_u, alphas_u = _root_values(specialization(pair, GU), ennola_e(at_root))
    ids, numbers = {}, {}
    for mp in mps:
        numbers[mp] = ids.setdefault(_root_counts(mp, d, omega, alphas), len(ids))
    sizes = list(Counter(numbers.values()).values())
    graph = {
        ((c * omega + alpha) % d, (c * omega_u + alpha_u) % du)
        for alpha, alpha_u in zip(alphas, alphas_u)
        for c in range(1 - pair.a, pair.a)
    }
    gl_values, gu_values = map(set, zip(*graph))
    return sizes, numbers, len(graph) == len(gl_values) == len(gu_values)


@lru_cache(maxsize=None)
def _one_block(e: int, a: int) -> tuple[list[int], dict, bool]:
    """One-block side table of the level-e series of rank a; shared, never mutated."""
    mps = multipartitions_of(e, a)
    return [len(mps)], dict.fromkeys(mps, 0), True


def block_match_report(
    n: int, e: int, m: int
) -> list[tuple[Partition, Partition, list[Partition], list[int], list[int], bool]]:
    """Check that every nonempty intersection of a level-e series and a
    level-m series maps to exactly one block on each side.

    For each pair of series with nonempty intersection, the image of the
    intersection in the e-side multipartitions must equal one full block of
    the e-side block partition at level m, and symmetrically.  The unitary
    variant must induce the same block partitions.  Returns one tuple
    (core_e, core_m, members, sizes_e, sizes_m, ok) per nonempty
    intersection, sorted by the two cores: the sizes are those of the blocks
    the members' images touch on each side, in block order.
    """
    if n < 1 or e < 1 or m < 1:
        raise ValueError("n, e, m must be >= 1")
    if gcd(e, m) != 1:
        raise ValueError("levels must be coprime")

    groups: dict[tuple[Partition, Partition], list[Partition]] = {}
    for p in reversed(partitions_of(n)):
        groups.setdefault((e_core(p, e), e_core(p, m)), []).append(p)
    # each series core is the core of some partition of n, so every group has its sides
    sides = {}
    for level, at_root in ((e, m), (m, e)):
        for pair in hc_pairs(n, level):
            sides[level, pair.core] = _side_blocks(pair, at_root)

    def side(members, level, core):
        """Whether the members' images are distinct and fill one whole block
        of their level series at the other level's root on both variants, and
        the sizes of the blocks they touch, in block order."""
        sizes, numbers, gu_ok = sides[level, core]
        images = {e_quotient_charged(p, level).components for p in members}
        hits = {numbers.get(mp) for mp in images}
        touched = [sizes[i] for i in sorted(hits - {None})]
        ok = gu_ok and None not in hits and len(images) == len(members)
        return ok and touched == [len(members)], touched

    report = []
    for (core_e, core_m), members in sorted(groups.items()):
        ok_e, sizes_e = side(members, e, core_e)
        ok_m, sizes_m = side(members, m, core_m)
        report.append((core_e, core_m, members, sizes_e, sizes_m, ok_e and ok_m))
    return report
