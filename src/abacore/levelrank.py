"""Level-rank combinatorics: the twisted index map qr_em, the Uglov bijection
between charged e- and m-multipartitions, and the diagram verify thm2 checks.

A bead of an e-abacus is a pair (x, i) with x an integer position in
component i.  The twisted quotient-remainder map qr_em re-reads one such bead
as a bead of an m-abacus; the Uglov bijection moves every bead this way, with
partitions.regroup.  It is the one public bead map: from level 1 it is the
abacus split of a charged partition, and to level 1 the join.  The diagram
commutes up to the affine permutations imported from partitions, which
correct the splits at two charges; verify thm2 checks it on canonical abaci,
splitting each partition once per level at charge 0, as the corrected split
is the same at every charge.
"""

from __future__ import annotations

from .partitions import (
    ChargedMultiPartition,
    Partition,
    _abaci,
    _charged,
    _shift_pairs,
    affine_perm,
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
