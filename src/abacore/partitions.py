"""Integer partitions, beta sets (abaci), and the charged core-quotient maps.

Conventions used throughout the package:

* A partition is a weakly decreasing tuple of positive integers; the empty
  partition is allowed.  Parts and charges have type int: bool is refused.
  Partition subclasses tuple, so partitions and the multipartitions built
  from them compare, hash and sort as their part tuples: sorted() gives the
  lexicographic order (Macdonald, I.1) in which series, their members and
  blocks are listed.  Every value type but IntPolynomial is an immutable
  tuple, read by field name and equal to the plain tuple of its fields, and
  checked by its public constructor (_charged builds the bead maps' outputs
  from fields it makes) but for HeckeParam and HeckeSpecialization, the
  unchecked records that specialization builds.  Boxes are indexed (row,
  column), both 1-based, and the content of a box is column - row.
* A charged partition is a ChargedMultiPartition of level 1.  Its beta set
  is {parts[i] - (i+1) + charge : i >= 0}, which contains every integer
  below some floor.  We store the canonical pair (floor, tail): floor is the
  largest t with Z_{<t} contained in the set, and tail lists the finitely
  many beads above the floor in decreasing order.
* charge(beta) = floor + len(tail), which equals the charge used to build
  the beta set.
* An e-abacus is an e-tuple of beta sets, components indexed 0..e-1.  The
  one bead map between abaci of two levels is `regroup`; on charged
  multipartitions it is levelrank.uglov, which splits a charged partition into
  its charged e-quotient from level 1 and joins it back to level 1.  Beside
  regroup live the affine permutations of abaci, affine_perm and _shift_pairs.
* The series charge s of p at level e is e + len(e-core of p); e_quotient_charged
  reads it off one charge-0 split and corrects that by affine_perm(e, 1, -s).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd
from operator import add, sub


class Partition(tuple):
    """A weakly decreasing tuple of positive integers, ordered as that tuple.

    >>> Partition((3, 1, 1)).size
    5
    >>> sorted([Partition((2,)), Partition((1, 1))])
    [Partition(parts=(1, 1)), Partition(parts=(2,))]
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        self = super().__new__(cls, parts)
        for i, p in enumerate(self):
            if type(p) is not int:
                raise ValueError(f"parts must be integers, got {p!r}")
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if i and self[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {self.parts}")
        return self

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def size(self) -> int:
        return sum(self)

    def conjugate(self) -> "Partition":
        cols = [0] * (self[0] if self else 0)
        for p in self:
            for j in range(p):
                cols[j] += 1
        return Partition(tuple(cols))

    def __repr__(self) -> str:
        return f"Partition(parts={self.parts})"

    def __str__(self) -> str:
        return ",".join(map(str, self))


# the empty partition, shared by every empty component _charged emits
_EMPTY = Partition(())

MultiPartition = tuple[Partition, ...]
MultiCharge = tuple[int, ...]


class ChargedMultiPartition(namedtuple("ChargedMultiPartition", "components charges")):
    """An e-tuple of partitions with an e-tuple of integer charges.  Level 1
    is a charged partition |p, s>, which levelrank.uglov splits and joins."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it: checked too

    def __new__(cls, components: MultiPartition, charges: MultiCharge):
        if len(components) != len(charges):
            raise ValueError("component and charge counts differ")
        if not components:
            raise ValueError("need at least one component")
        for q, c in zip(components, charges):
            if not isinstance(q, Partition):
                raise ValueError(f"components must be Partitions, got {q!r}")
            if type(c) is not int:
                raise ValueError(f"charges must be integers, got {c!r}")
        return tuple.__new__(cls, (tuple(components), tuple(charges)))

    @property
    def level(self) -> int:
        return len(self.components)

    @property
    def total_charge(self) -> int:
        return sum(self.charges)


class BetaSet(namedtuple("BetaSet", "floor tail")):
    """The set Z_{<floor} union tail, with tail decreasing and above floor.

    Canonical form: floor is the largest t such that every integer below t
    is in the set; consequently floor itself is never a bead and every tail
    entry exceeds it.

    >>> BetaSet(0, ()).charge
    0
    >>> BetaSet(-2, (1, -1)).charge
    0
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it: checked too

    def __new__(cls, floor: int, tail: tuple[int, ...] = ()):
        self = tuple.__new__(cls, (floor, tuple(tail)))
        self.__post_init__()  # its own method: perfbench's per-layer trace counts it
        return self

    def __post_init__(self):
        for x in (self.floor, *self.tail):
            if type(x) is not int:
                raise ValueError(f"floor and tail entries must be integers, got {x!r}")
        for i, x in enumerate(self.tail):
            if x <= self.floor:
                raise ValueError("tail entries must exceed the floor")
            if i + 1 < len(self.tail) and self.tail[i + 1] >= x:
                raise ValueError("tail must be strictly decreasing")

    @property
    def charge(self) -> int:
        return self.floor + len(self.tail)

    def __contains__(self, x: int) -> bool:
        return x < self.floor or x in self.tail


# ---------------------------------------------------------------------------
# hooks and cores by direct Young-diagram combinatorics

@lru_cache(maxsize=None)
def hook_lengths(p: Partition) -> tuple[int, ...]:
    """The multiset of hook lengths of p, as a decreasing tuple (memoised).

    >>> hook_lengths(Partition((2, 1)))
    (3, 1, 1)
    """
    conj = p.conjugate()
    hooks = []
    for i, row in enumerate(p, start=1):
        for j in range(1, row + 1):
            arm = row - j
            leg = conj[j - 1] - i
            hooks.append(arm + leg + 1)
    return tuple(sorted(hooks, reverse=True))


@lru_cache(maxsize=None)
def _contents(p: Partition) -> tuple[int, ...]:
    """The content column - row of every box of p, row by row (memoised).

    >>> _contents(Partition((3, 1)))
    (0, 1, 2, -1)
    """
    return tuple(c for row, length in enumerate(p) for c in range(-row, length - row))


def is_e_core(p: Partition, e: int) -> bool:
    """True iff no hook length of p is divisible by e."""
    if e < 1:
        raise ValueError("e must be >= 1")
    return all(h % e != 0 for h in hook_lengths(p))


# ---------------------------------------------------------------------------
# the abacus: charged partitions <-> beta sets, the bead map and its corrections

Abacus = tuple[tuple[int, tuple[int, ...]], ...]


def _abaci(components, charges) -> Abacus:
    """Canonical (floor, tail) pairs of charged partitions: the beads of
    |p, s> are {p[i] - (i+1) + s : i >= 0}."""
    return tuple(
        (s - len(p), tuple(map(sub, p, range(1 - s, len(p) + 1 - s))))
        for p, s in zip(components, charges)
    )


def _charged(abaci: Abacus) -> ChargedMultiPartition:
    """Inverse of _abaci, charge = floor + len(tail); an empty tail gives the
    shared immutable _EMPTY, every other component is validated by Partition.
    The fields are made here, so the named tuple is built without re-checks."""
    components = []
    charges = []
    for floor, tail in abaci:
        s = floor + len(tail)
        components.append(Partition(tuple(map(add, tail, range(1 - s, 1 - floor))))
                          if tail else _EMPTY)
        charges.append(s)
    return tuple.__new__(ChargedMultiPartition, (tuple(components), tuple(charges)))


def regroup(abaci: Abacus, m: int) -> Abacus:
    """Move every bead (x, i) of an e-abacus to (e*(x//m) + i, x % m).

    abaci is a non-empty e-tuple of canonical (floor, tail) pairs and m >= 1;
    the result is the canonical m-tuple.  Total charge is preserved and
    regroup(regroup(abaci, m), e) == abaci.  From e = 1 this splits a beta set
    by residue mod m; to m = 1 it joins e components; in general it is the
    Uglov level-rank map, bead by bead (levelrank.qr_em).

    One call relocates each bead once, in O(beads + lift + m) besides
    sorting each residue's beads: beads is the total tail length, base the
    lowest floor and lift the sum of floor_i - base.  Component i sends each
    of its beads x >= base, the tail and the lifted range base <= x < floor_i,
    to residue x % m as e*(x // m) + i.  Below base every component is full,
    so residue rho also holds every e*q + i with m*q + rho < base: all of Z
    below e*ceil((base - rho) / m), where its floor starts.  The images are
    distinct, since (x, i) -> (e*(x // m) + i, x % m) is one to one, so the
    k beads of a residue, none below its floor, are one run from it exactly
    when the highest is floor + k - 1.  An empty residue or one run is
    finished in O(1), its floor climbing over the whole run at once; only a
    residue that keeps a tail climbs bead by bead and builds a tuple.

    >>> regroup(((2, (5,)),), 3)
    ((1, ()), (1, ()), (0, (1,)))
    >>> regroup(((1, ()), (1, ()), (0, (1,))), 1)
    ((2, (5,)),)
    >>> regroup(((0, ()), (3, ()), (-1, (1,))), 2)
    ((0, (4, 1)), (-1, (2, 1)))
    >>> regroup(((1, ()), (0, (2,))), 1)  # bead 0 is absorbed, 5 kept
    ((1, (5,)),)
    """
    e = len(abaci)
    base = min(floor for floor, _ in abaci)
    buckets = [[] for _ in range(m)]
    for i, (floor, tail) in enumerate(abaci):
        for x in tail:
            buckets[x % m].append(e * (x // m) + i)
        for x in range(base, floor):
            buckets[x % m].append(e * (x // m) + i)
    for rho, beads in enumerate(buckets):
        floor = -e * ((rho - base) // m)
        if beads:
            beads.sort(reverse=True)
            n = len(beads)
            if beads[0] - floor == n - 1:  # one run from the floor
                buckets[rho] = (floor + n, ())
            else:
                while beads[-1] == floor:
                    beads.pop()
                    floor += 1
                buckets[rho] = (floor, tuple(beads))
        else:
            buckets[rho] = (floor, ())
    return tuple(buckets)


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


def to_beta(cmp: ChargedMultiPartition) -> BetaSet:
    """The beta set {parts[i] - (i+1) + charge : i >= 0} of a charged
    partition, a ChargedMultiPartition of level 1.

    >>> to_beta(ChargedMultiPartition((Partition((2, 1)),), (0,)))
    BetaSet(floor=-2, tail=(1, -1))
    """
    if cmp.level != 1:
        raise ValueError(f"to_beta needs level 1, got level {cmp.level}")
    return BetaSet(*_abaci(cmp.components, cmp.charges)[0])


def from_beta(b: BetaSet) -> ChargedMultiPartition:
    """Inverse of to_beta; the output charge equals charge(b)."""
    return _charged(((b.floor, b.tail),))


@lru_cache(maxsize=None)
def e_core(p: Partition, e: int) -> Partition:
    """The partition left after removing all rim e-hooks from p: the level-1
    join of the emptied components of the cached e_quotient_charged(p, e), as
    a core does not depend on the charge, memoised per charge vector by
    _join_emptied.  Raises ValueError for e < 1.

    >>> e_core(Partition((3,)), 3)
    Partition(parts=())
    """
    return _join_emptied(e_quotient_charged(p, e).charges)


@lru_cache(maxsize=None)
def _join_emptied(charges: MultiCharge) -> Partition:
    """The partition of the level-1 join of empty components with these
    charges; the level is len(charges), so each (core, level) is joined once."""
    return _charged(regroup(tuple((c, ()) for c in charges), 1)).components[0]


@lru_cache(maxsize=None)
def e_quotient_charged(p: Partition, e: int) -> ChargedMultiPartition:
    """The series map: p's charged e-quotient at the series charge
    s = e + len(e-core of p), its charge-0 split corrected by affine_perm(e, 1, -s).

    Emptying the split's components, of charges c_r, leaves the core at
    charge 0, whose lowest empty position min(e*c_r + r) is -len(core).
    Adding s to every bead e*x + r moves component r to (r + s) mod e,
    raised by (r + s) // e: affine_perm(e, 1, t) sends component (b + t) mod e
    to b, shifted by -((b + t) // e), so at t = -s it is that move, the m = 1
    case of thm2's correction.  The components are p's image in its e-core's
    series; the charges depend on the core alone and give the core (e_core),
    the Hecke exponents (core_exponents) and the residue keys.  At charge 0,
    (3) splits into (1), () of charges 1, -1 and s = 3; at e = 3, (2, 2)
    splits into (), (1), () of charges 1, 0, -1 and s = 4, as its core is (1):

    >>> image = e_quotient_charged(Partition((3,)), 2)
    >>> image.components, image.charges
    ((Partition(parts=()), Partition(parts=(1,))), (1, 2))
    >>> image = e_quotient_charged(Partition((2, 2)), 3)
    >>> image.components, image.charges
    ((Partition(parts=()), Partition(parts=()), Partition(parts=(1,))), (1, 2, 1))
    """
    if e < 1:
        raise ValueError("e must be >= 1")
    split = regroup(_abaci((p,), (0,)), e)
    s = e - min(e * (floor + len(tail)) + r for r, (floor, tail) in enumerate(split))
    return _charged(_shift_pairs(affine_perm(e, 1, -s), split))


@lru_cache(maxsize=None)
def core_exponents(core: Partition, e: int) -> tuple[int, ...]:
    """The exponent vector (e*c_i + i) read off the quotient charges of an e-core.

    Entry i is e times the i-th charge of e_quotient_charged(core, e) plus
    i.  Rejects inputs that are not e-cores.

    >>> core_exponents(Partition(()), 2)
    (2, 3)
    >>> core_exponents(Partition((1,)), 2)
    (2, 5)
    """
    if not is_e_core(core, e):
        raise ValueError(f"{core.parts} is not a {e}-core")
    return tuple(e * c + i for i, c in enumerate(e_quotient_charged(core, e).charges))


# ---------------------------------------------------------------------------
# enumeration

@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in decreasing lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(parts) for parts in gen(n, n))


@lru_cache(maxsize=None)
def multipartitions_of(e: int, a: int) -> tuple[MultiPartition, ...]:
    """All e-tuples of partitions of total size a, in increasing lexicographic
    order of their part tuples: the sorted() order blocks list members in."""
    if e < 1:
        raise ValueError("e must be >= 1")
    if a < 0:
        raise ValueError("a must be >= 0")
    if e == 1:
        return tuple((p,) for p in reversed(partitions_of(a)))
    return tuple(
        (p,) + rest
        for p in sorted(q for k in range(a + 1) for q in partitions_of(k))
        for rest in multipartitions_of(e - 1, a - p.size)
    )

