"""Level-rank combinatorics: twisted index maps, the Uglov bijection between
charged e- and m-multipartitions, and the affine permutations that make the
two core-quotient routes commute.

A bead of an e-abacus is a pair (x, i) with x an integer position in
component i.  The twisted quotient-remainder map qr_em re-reads one such bead
as a bead of an m-abacus; the Uglov bijection moves every bead this way, with
partitions.regroup.  It is the one public bead map: from level 1 it is the
abacus split of a charged partition, and to level 1 the join.  The affine
permutations are the corrections that relate splitting at two different
charges; they permute components and shift charges, on abaci by _shift_pairs.
The diagram they make commute is checked on canonical abaci from (charge,
split) facts; verify thm2 splits each partition once per level at charge 0,
as the corrected split is the same at every charge.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd

from .partitions import (
    Abacus,
    ChargedMultiPartition,
    Partition,
    _abaci,
    _charged,
    regroup,
)


def qr_em(x: int, y: int, e: int, m: int) -> tuple[int, int]:
    """Re-read bead (x, y) of an e-abacus as a bead of an m-abacus.

    Returns (q', r') = (e*(x // m) + y, x % m), with e*x + m*y = m*q' + e*r';
    qr_em(q', r', m, e) maps it back to (x, y).

    >>> qr_em(-1, 1, 2, 3)
    (-1, 2)
    """
    if type(x) is not int or type(y) is not int:
        raise ValueError(f"bead entries must be integers, got {x!r}, {y!r}")
    if type(e) is not int or type(m) is not int:
        raise ValueError(f"levels must be integers, got {e!r}, {m!r}")
    if e < 1 or m < 1:
        raise ValueError("levels must be >= 1")
    if not 0 <= y < e:
        raise ValueError(f"component {y} out of range for level {e}")
    return (e * (x // m) + y, x % m)


def uglov(cmp: ChargedMultiPartition, m: int) -> ChargedMultiPartition:
    """The Uglov bijection from charged e-multipartitions to charged
    m-multipartitions, realized on abaci.

    Total charge is preserved, and applying the map with (m, e) swapped
    inverts it.  From e = 1 it splits a charged partition into its charged
    m-quotient; to m = 1 it joins the components back into one.

    >>> split = uglov(ChargedMultiPartition((Partition((3,)),), (3,)), 3)
    >>> split.components, split.charges
    ((Partition(parts=()), Partition(parts=()), Partition(parts=(1,))), (1, 1, 1))
    >>> uglov(split, 1)
    ChargedMultiPartition(components=(Partition(parts=(3,)),), charges=(3,))
    """
    if type(m) is not int:
        raise ValueError(f"target level must be an integer, got {m!r}")
    if m < 1:
        raise ValueError("target level must be >= 1")
    return _charged(regroup(_abaci(cmp.components, cmp.charges), m))


class AffinePerm(namedtuple("AffinePerm", "e perm shifts")):
    """An affine permutation of beads (x, i): component i is sent to
    perm[i], and a bead landing in component j is shifted by shifts[j].

    perm, e integers, must be a bijection of range(e); shifts, e integers, is
    indexed by the target component.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it: checked too

    def __new__(cls, e: int, perm: tuple[int, ...], shifts: tuple[int, ...]):
        types = list(map(type, (e, *perm, *shifts)))
        if types != [int] * (2 * len(perm) + 1) or sorted(perm) != list(range(e)):
            raise ValueError("inconsistent affine permutation data")
        return tuple.__new__(cls, (e, tuple(perm), tuple(shifts)))


@lru_cache(maxsize=None)
def affine_perm(e: int, m: int, s: int) -> AffinePerm:
    """The affine permutation correcting the e-abacus for charge s.

    Sends a bead (a, r_e(m*b + s)) to (a - q_e(m*b + s), b): its perm w has
    w((m*b + s) mod e) = b, and the shift is indexed by the target component
    b.  Defined only for coprime e, m.

    >>> affine_perm(3, 2, 0).perm
    (0, 2, 1)
    """
    if e < 1 or m < 1:
        raise ValueError("levels must be >= 1")
    if gcd(e, m) != 1:
        raise ValueError(f"levels {e}, {m} must be coprime")
    w = [0] * e
    for b in range(e):
        w[(m * b + s) % e] = b
    shifts = tuple(-((m * b + s) // e) for b in range(e))
    return AffinePerm(e, tuple(w), shifts)


def _shift_pairs(ap: AffinePerm, abaci: Abacus) -> Abacus:
    """The affine action on canonical (floor, tail) pairs: component i moves
    to perm[i], its floor and every tail bead shifted by shifts[perm[i]];
    one whose shift is 0 moves as it is.

    >>> _shift_pairs(affine_perm(2, 3, 3), ((0, ()), (1, (3,))))
    ((0, (2,)), (-3, ()))
    """
    e, perm, shifts = ap
    out = [None] * e
    for pair, j in zip(abaci, perm):
        d = shifts[j]
        if d:
            floor, tail = pair
            pair = (floor + d, tuple([x + d for x in tail]) if tail else tail)
        out[j] = pair
    return tuple(out)


def _routes_agree(e: int, m: int, split_e, split_m) -> bool:
    """Commutation of the two routes from a partition to an m-multipartition,
    given its (charge, split) at level e and at level m.

    Route one: apply the (e, m, s) affine permutation to the split at charge
    s into e components, then the Uglov bijection to level m.  Route two:
    apply the (m, e, t) affine permutation to the split at charge t into m
    components.  Both routes stay on canonical abaci, which determine the
    charged multipartitions.
    """
    (s, abaci_e), (t, abaci_m) = split_e, split_m
    route_e = regroup(_shift_pairs(affine_perm(e, m, s), abaci_e), m)
    route_m = _shift_pairs(affine_perm(m, e, t), abaci_m)
    return route_e == route_m
