from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abacore import levelrank, partitions
from abacore.suites import LEVEL_SWEEP_MAX
from abacore.levelrank import qr_em, uglov
from abacore.partitions import (
    AffinePerm,
    BetaSet,
    ChargedMultiPartition,
    Partition,
    _abaci,
    _shift_pairs,
    affine_perm,
    from_beta,
    is_e_core,
    partitions_of,
    regroup,
    to_beta,
)
from oracles import (
    apply_affine_on_beads,
    apply_affine_on_components,
    check_core_matched_diagram,
    check_uglov_diagram,
    regroup_on_beads,
)

P = Partition


def charged(p, s):
    """The charged partition |p, s>: a charged multipartition of level 1."""
    return ChargedMultiPartition((p,), (s,))


def bead(ap, x, i):
    """The bead (x, i) moved by the affine permutation ap: to component
    perm[i], shifted by that component's shift."""
    j = ap.perm[i]
    return (x + ap.shifts[j], j)


def check_bead_square(x, e, m, s, t):
    """Pointwise commutation of the bead-level square at the integer x.

    Route one: split x through the e-side (charge s), correct by the affine
    permutation, then re-read via qr_em.  Route two: split x through the
    m-side (charge t) and correct there.  The two must agree.
    """
    a, b = divmod(x + s, e)
    via_e = qr_em(*bead(affine_perm(e, m, s), a, b), e, m)
    c, d = divmod(x + t, m)
    return via_e == bead(affine_perm(m, e, t), c, d)


class TestQuotientRemainder:
    def test_qr_examples(self):
        # from level 1, qr_em is the floor quotient and remainder
        assert qr_em(5, 0, 1, 3) == (1, 2)
        assert qr_em(-1, 0, 1, 3) == (-1, 2)
        assert qr_em(0, 0, 1, 7) == (0, 0)

    def test_qr_rejects_bad_modulus(self):
        with pytest.raises(ValueError, match="levels must be >= 1"):
            qr_em(5, 0, 1, 0)

    def test_qr_em_examples(self):
        for x in range(-9, 10):
            assert qr_em(x, 0, 1, 4) == divmod(x, 4)
        assert qr_em(1, 0, 2, 3) == (0, 1)
        assert qr_em(-1, 1, 2, 3) == (-1, 2)

    def test_qr_em_rejects_bad_component(self):
        with pytest.raises(ValueError):
            qr_em(0, 2, 2, 3)
        with pytest.raises(ValueError, match="component 3 out of range for level 3"):
            qr_em(0, 3, 3, 2)

    @pytest.mark.parametrize(
        "e, m, shown",
        [(True, 3, "True, 3"), (2.0, 3, "2.0, 3"), (2, True, "2, True"), (2, 3.0, "2, 3.0")],
    )
    def test_qr_em_refuses_levels_that_are_not_int(self, e, m, shown):
        # a float level gave a float bead, (2.0, 0) for e = 2.0, and True was
        # read as level 1; integer levels keep their own messages
        with pytest.raises(ValueError) as exc:
            qr_em(3, 0, e, m)
        assert str(exc.value) == f"levels must be integers, got {shown}"
        assert qr_em(3, 0, 2, 3) == (2, 0)
        assert type(qr_em(3, 0, 2, 3)[0]) is int

    @pytest.mark.parametrize(
        "x, y, shown",
        [(2.5, 0, "2.5, 0"), (True, 0, "True, 0"), (0, True, "0, True"), (3, 1.0, "3, 1.0")],
    )
    def test_qr_em_refuses_beads_that_are_not_int(self, x, y, shown):
        # qr_em(2.5, 0, 2, 3) gave the float bead (0.0, 2.5) and True was read
        # as 1; the bead is checked first, so bad levels do not mask it
        for e, m in ((2, 3), (2.0, 0)):
            with pytest.raises(ValueError) as exc:
                qr_em(x, y, e, m)
            assert str(exc.value) == f"bead entries must be integers, got {shown}"
        assert qr_em(2, 0, 2, 3) == (0, 2)
        assert qr_em(1, 1, 2, 3) == (1, 1)

    def test_qr_em_swapped_levels_examples(self):
        # qr_em with the levels swapped inverts it
        assert qr_em(0, 1, 3, 2) == (1, 0)
        assert qr_em(-1, 2, 3, 2) == (-1, 1)

    def test_index_bijection_window(self):
        for e in range(1, 9):
            for m in range(1, 9):
                for x in range(-50, 51):
                    for y in range(e):
                        q, r = qr_em(x, y, e, m)
                        assert 0 <= r < m
                        assert e * x + m * y == m * q + e * r
                        assert qr_em(q, r, m, e) == (x, y)

    def test_coprime_converse(self):
        # if e*a + m*b = m*c + e*d then (c, d) is the image of (a, b)
        for e in range(1, 9):
            for m in range(1, 9):
                if gcd(e, m) != 1:
                    continue
                for a in range(-10, 11):
                    for b in range(e):
                        for d in range(m):
                            lhs = e * a + m * b - e * d
                            if lhs % m:
                                continue
                            assert qr_em(a, b, e, m) == (lhs // m, d)


class TestResiduePerm:
    def test_examples(self):
        assert affine_perm(2, 3, 0).perm == (0, 1)
        assert affine_perm(3, 2, 0).perm == (0, 2, 1)
        # maps 1 -> 0, 2 -> 1, 0 -> 2
        assert affine_perm(3, 1, 1).perm == (2, 0, 1)

    def test_defining_relation(self):
        for e in range(1, 7):
            for m in range(1, 7):
                if gcd(e, m) != 1:
                    continue
                for s in range(-5, 6):
                    w = affine_perm(e, m, s).perm
                    for b in range(e):
                        assert w[(m * b + s) % e] == b

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            affine_perm(4, 2, 0)


# ((e, m, s), (components, charges)): corrections whose shifts are all 0
# (e = 1 at s = 0), some 0 (the b with m*b < e at s = 0) and none 0
SHIFT_CASES = [
    ((3, 2, 0), ((P(()),) * 3, (0, 0, 0))),
    ((2, 3, 1), ((P((2,)), P((1, 1))), (1, -2))),
    ((3, 4, -2), ((P((1,)), P(()), P((3, 1))), (0, 2, -1))),
    ((1, 3, 0), ((P((2, 1)),), (1,))),
    ((3, 2, 0), ((P((2,)), P((1, 1)), P((3,))), (0, 1, -1))),
    ((4, 3, 0), ((P((1,)), P((2,)), P(()), P((2, 2))), (1, 0, -2, 2))),
]


def shift_pairs_misses(shift_pairs):
    """The components of shift_pairs(affine_perm(e, m, s), abaci) over
    SHIFT_CASES that differ from the action on explicit bead sets, compared
    in a window far below 0; a component left unset is a miss."""
    low = -40
    misses = 0
    for (e, m, s), (comps, charges) in SHIFT_CASES:
        ap = affine_perm(e, m, s)
        expected_sets = apply_affine_on_beads(
            ap.perm,
            ap.shifts,
            [
                {x for x in range(low, 20) if x in to_beta(charged(p, c))}
                for p, c in zip(comps, charges)
            ],
        )
        result = shift_pairs(ap, _abaci(comps, charges))
        for j in range(e):
            expected = {x for x in expected_sets[j] if x >= low + 10}
            if result[j] is None:
                misses += 1
                continue
            beta = BetaSet(*result[j])
            misses += {x for x in range(low + 10, 20) if x in beta} != expected
    return misses


def unpermuted_zero_shift(ap, abaci):
    """Mutant of _shift_pairs: a component whose shift is 0 stays at its own
    index i instead of moving to perm[i]."""
    out = [None] * ap.e
    for i, ((floor, tail), j) in enumerate(zip(abaci, ap.perm)):
        d = ap.shifts[j]
        out[j if d else i] = (floor + d, tuple(x + d for x in tail))
    return tuple(out)


class TestAffinePerm:
    def test_examples(self):
        assert affine_perm(2, 3, 0) == AffinePerm(2, (0, 1), (0, -1))
        assert affine_perm(3, 2, 0) == AffinePerm(3, (0, 2, 1), (0, 0, -1))
        for s in range(-4, 5):
            assert affine_perm(1, 5, s) == AffinePerm(1, (0,), (-s,))

    @pytest.mark.parametrize("e, m", [(0, 1), (1, 0), (-1, 2)])
    def test_rejects_nonpositive_levels(self, e, m):
        # gcd(e, m) is 1 for each, so only the level check can name the fault
        with pytest.raises(ValueError) as exc:
            affine_perm(e, m, 0)
        assert str(exc.value) == "levels must be >= 1"

    def test_bead_action_definition(self):
        for e, m in ((2, 3), (3, 4), (5, 2)):
            for s in (-3, 0, 2):
                ap = affine_perm(e, m, s)
                for b in range(e):
                    for a in (-3, 0, 7):
                        assert bead(ap, a, (m * b + s) % e) == (
                            a - (m * b + s) // e,
                            b,
                        )

    def test_shift_pairs_charge_shifts(self):
        ap = affine_perm(2, 3, 0)
        empties = (P(()), P(()))
        assert _shift_pairs(ap, _abaci(empties, (4, 7))) == _abaci(empties, (4, 6))
        identity = affine_perm(1, 1, 0)
        one = _abaci((P((2, 1)),), (3,))
        assert _shift_pairs(identity, one) == one

    def test_shift_pairs_permutes_and_shifts(self):
        # bead (a, i) goes to component perm[i] shifted by shifts[perm[i]]:
        # for (3, 2, 0) the empty triple at charges (0,0,0) lands on (0,0,-1)
        ap = affine_perm(3, 2, 0)
        empties = (P(()),) * 3
        assert _shift_pairs(ap, _abaci(empties, (0, 0, 0))) == _abaci(empties, (0, 0, -1))

    def test_shift_pairs_against_bead_oracle(self):
        assert shift_pairs_misses(_shift_pairs) == 0
        # component 2 of (3, 2, 0) moves to component 1, whose shift is 0
        ap = affine_perm(3, 2, 0)
        abaci = _abaci((P((2,)), P((1, 1)), P((3,))), (0, 1, -1))
        assert (ap.perm[2], ap.shifts[1]) == (1, 0)
        assert _shift_pairs(ap, abaci)[1] == abaci[2]

    def test_bead_oracle_catches_unpermuted_zero_shift(self):
        # every case but e = 1 moves one unshifted component: it lands on
        # the wrong index and leaves its own target unset, 2 misses each
        assert shift_pairs_misses(unpermuted_zero_shift) == 2 * 5


class TestUglov:
    def test_fixes_trivial(self):
        for e, m in ((1, 1), (2, 3), (3, 5)):
            cmp0 = ChargedMultiPartition((P(()),) * e, (0,) * e)
            image = uglov(cmp0, m)
            assert image == ChargedMultiPartition((P(()),) * m, (0,) * m)

    @pytest.mark.parametrize("m", [True, 2.0, "2"])
    def test_refuses_a_level_that_is_not_int(self, monkeypatch, m):
        # True was read as level 1 and 2.0 failed in range with a bare
        # TypeError; both are refused before any bead moves
        def bead_map(*args):
            raise AssertionError("bead map reached")

        cmp0 = charged(P((2,)), 0)
        with monkeypatch.context() as patch:
            patch.setattr(levelrank, "_abaci", bead_map)
            patch.setattr(levelrank, "regroup", bead_map)
            with pytest.raises(ValueError) as exc:
                uglov(cmp0, m)
            assert str(exc.value) == f"target level must be an integer, got {m!r}"
            with pytest.raises(ValueError, match="^target level must be >= 1$"):
                uglov(cmp0, 0)
        assert uglov(cmp0, 2) == ChargedMultiPartition((P(()), P((1,))), (0, 0))
        assert uglov(cmp0, 1) == cmp0

    def test_example_2_to_3(self):
        cmp0 = ChargedMultiPartition((P(()), P(())), (1, 0))
        assert uglov(cmp0, 3) == ChargedMultiPartition(
            (P(()), P(()), P(())), (1, 0, 0)
        )

    def test_target_level_one_is_abacus_join(self):
        cases = [
            ((P((2,)), P((1, 1))), (0, -1), (4, 2, 1, 1), -1),
            ((P(()), P((3,)), P((1,))), (2, 0, -3), (9, 6, 4, 2, 1, 1, 1, 1, 1), -1),
        ]
        for comps, charges, parts, s in cases:
            pairs = [(p.parts, c) for p, c in zip(comps, charges)]
            assert regroup_on_beads(pairs, 1) == [(parts, s)]
            cmp0 = ChargedMultiPartition(comps, charges)
            assert uglov(cmp0, 1) == charged(P(parts), s)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(1, 4), max_size=4).map(
                    lambda xs: P(tuple(sorted(xs, reverse=True)))
                ),
                st.integers(-5, 5),
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 6),
    )
    def test_round_trip_and_charge(self, comps, m):
        cmp0 = ChargedMultiPartition(
            tuple(p for p, _ in comps), tuple(c for _, c in comps)
        )
        image = uglov(cmp0, m)
        assert image.total_charge == cmp0.total_charge
        assert uglov(image, cmp0.level) == cmp0

    def test_bead_level_definition(self):
        # every bead (x, i) of the source maps to qr_em(x, i, e, m)
        cmp0 = ChargedMultiPartition((P((3, 1)), P((2,))), (0, -1))
        e, m = 2, 5
        image = uglov(cmp0, m)
        image_abaci = [
            to_beta(charged(p, c)) for p, c in zip(image.components, image.charges)
        ]
        for i, (p, c) in enumerate(zip(cmp0.components, cmp0.charges)):
            beta = to_beta(charged(p, c))
            for x in range(-30, 15):
                if x in beta:
                    q, r = qr_em(x, i, e, m)
                    assert q in image_abaci[r]


# every (partition of size <= 5, charge in -3..3), the inputs of the bead sweep
CHARGED_SMALL = [
    (p.parts, s) for n in range(6) for p in partitions_of(n) for s in range(-3, 4)
]


def bead_sweep():
    """(components, m) for all levels e, m in 1..4, coprime or not.

    For each e, component i runs over every entry of CHARGED_SMALL as k does
    (the step i + 1 is prime to its length 133), with a different pairing of
    components for each i.
    """
    total = len(CHARGED_SMALL)
    for e in range(1, 5):
        for m in range(1, 5):
            for k in range(total):
                yield [
                    CHARGED_SMALL[(k * (i + 1) + 37 * i) % total] for i in range(e)
                ], m


# partitions of size <= 4, paired with charges spread over -40..40
WIDE_PARTS = [p.parts for n in range(5) for p in partitions_of(n)]


def wide_floor_sweep():
    """(components, m) for e, m in 1..5 whose component floors lie far apart.

    Component charges step by 37 mod 81 over -40..40, so within one input the
    floors differ by many multiples of m; e = 1 splits and m = 1 joins.
    """
    for e in range(1, 6):
        for m in range(1, 6):
            for k in range(24):
                yield [
                    (WIDE_PARTS[(k + 5 * i) % len(WIDE_PARTS)], (29 * k + 37 * i) % 81 - 40)
                    for i in range(e)
                ], m


def thm2_level_sweep():
    """(components, m) for the levels verify thm2 reaches beyond the sweeps
    above: coprime e, m with 6 <= max(e, m) <= LEVEL_SWEEP_MAX.

    Each pair gets four inputs of each shape: equal floors, the same with
    one floor raised by 1 to 16, and all tails empty with charges spread over
    -m..m.
    """
    for e in range(1, LEVEL_SWEEP_MAX + 1):
        for m in range(1, LEVEL_SWEEP_MAX + 1):
            if gcd(e, m) != 1 or max(e, m) < 6:
                continue
            for k in range(4):
                parts = [WIDE_PARTS[(k + 3 * i) % len(WIDE_PARTS)] for i in range(e)]
                floor = 2 * k - 3
                yield [(p, floor + len(p)) for p in parts], m
                yield [
                    (p, floor + len(p) + (1 + 5 * k) * (i == k % e))
                    for i, p in enumerate(parts)
                ], m
                yield [((), (7 * i + 3 * k) % (2 * m + 1) - m) for i in range(e)], m


# (components, m) and how regroup finishes each residue of their abacus
FINISH_CASES = [
    ([((2,), 1)], 3, ("empty", "empty", "run")),
    ([((3, 1), 2)], 2, ("kept", "run")),
    # beads 0, 2 and 3: the floor climbs over 0 and keeps the tail (3, 2)
    ([((), 2), ((1,), 1)], 1, ("partial",)),
    ([((), 0), ((), 3), ((1,), 0)], 2, ("kept", "partial")),
]


def finish_sweep():
    """(components, m) of FINISH_CASES."""
    for comps, m, _ in FINISH_CASES:
        yield comps, m


def residue_finishes(comps, m):
    """How each residue of the image of comps is finished, read from the
    bead oracle: 'empty' with no bead at or above its starting floor
    -e*((rho - base) // m), 'run' when the floor climbs over all of them,
    'partial' when it climbs over some and keeps a tail, 'kept' when it
    keeps all."""
    e = len(comps)
    base = min(s - len(parts) for parts, s in comps)
    kinds = {
        (False, False): "empty",
        (True, False): "run",
        (True, True): "partial",
        (False, True): "kept",
    }
    return tuple(
        kinds[s - len(parts) + e * ((rho - base) // m) > 0, bool(parts)]
        for rho, (parts, s) in enumerate(regroup_on_beads(comps, m))
    )


def as_pairs(cmp):
    return [(p.parts, s) for p, s in zip(cmp.components, cmp.charges)]


def from_pairs(pairs):
    return ChargedMultiPartition(
        tuple(P(parts) for parts, _ in pairs), tuple(s for _, s in pairs)
    )


class TestBeadMapOracle:
    def test_sweep_matches_bead_windows(self):
        for comps, m in bead_sweep():
            expected = regroup_on_beads(comps, m)
            cmp0 = from_pairs(comps)
            assert as_pairs(uglov(cmp0, m)) == expected
            if len(comps) == 1:
                # a split of a beta set, through its level-1 charged partition
                assert as_pairs(uglov(from_beta(to_beta(cmp0)), m)) == expected
            if m == 1:
                ((parts, s),) = expected
                assert to_beta(uglov(cmp0, 1)) == to_beta(charged(P(parts), s))

    def test_off_by_one_component_is_caught(self):
        disagreements = sum(
            as_pairs(uglov(from_pairs(comps), m))
            != regroup_on_beads(comps, m, index_offset=1)
            for comps, m in bead_sweep()
        )
        assert disagreements > 0

    def test_wide_floor_sweep_matches_bead_windows(self):
        cases = 0
        for comps, m in wide_floor_sweep():
            assert as_pairs(uglov(from_pairs(comps), m)) == regroup_on_beads(comps, m)
            cases += 1
        assert cases == 25 * 24

    def test_wide_floor_sweep_catches_off_by_one_component(self):
        disagreements = sum(
            as_pairs(uglov(from_pairs(comps), m))
            != regroup_on_beads(comps, m, index_offset=1)
            for comps, m in wide_floor_sweep()
        )
        assert disagreements > 0

    def test_thm2_level_sweep_matches_bead_windows(self):
        cases = 0
        for comps, m in thm2_level_sweep():
            assert as_pairs(uglov(from_pairs(comps), m)) == regroup_on_beads(comps, m)
            cases += 1
        # 72 coprime pairs in 1..12 with max(e, m) >= 6, 3 shapes of 4 inputs
        assert cases == 72 * 12

    def test_finishes_match_bead_windows(self):
        # an empty residue, a run the floor climbs over whole, and a run
        # ending at a gap below a kept tail each give the oracle's image
        kinds = set()
        for comps, m, finishes in FINISH_CASES:
            assert as_pairs(uglov(from_pairs(comps), m)) == regroup_on_beads(comps, m)
            assert residue_finishes(comps, m) == finishes
            kinds.update(finishes)
        assert kinds == {"empty", "run", "partial", "kept"}

    def test_regroup_inverts_on_wide_floors(self):
        # regroup(regroup(a, m), e) == a on the canonical abaci of both sweeps,
        # whose floors lie far apart (lift >> m) or close (lift < m); kinds
        # records which of those the e = 1 splits, the m = 1 joins and the
        # other level pairs reach
        kinds = set()
        for comps, m in chain(wide_floor_sweep(), thm2_level_sweep()):
            abaci = _abaci([P(parts) for parts, _ in comps], [s for _, s in comps])
            e = len(abaci)
            assert regroup(regroup(abaci, m), e) == abaci
            base = min(floor for floor, _ in abaci)
            lift = sum(floor - base for floor, _ in abaci)
            size = "wide" if lift >= 10 * m else "narrow" if lift < m else "mid"
            kinds.add((size, "split" if e == 1 else "join" if m == 1 else "e, m"))
        assert kinds >= {
            ("narrow", "split"),
            ("wide", "join"),
            ("wide", "e, m"),
            ("narrow", "e, m"),
        }


class TestDiagrams:
    def test_bead_square_windows(self):
        for e in range(1, 7):
            for m in range(1, 7):
                if gcd(e, m) != 1:
                    continue
                for s, t in ((0, 0), (2, -1), (-3, 4)):
                    assert all(
                        check_bead_square(x, e, m, s, t) for x in range(-20, 21)
                    )

    def test_bead_square_spec_cases(self):
        assert all(check_bead_square(x, 2, 3, 0, 0) for x in range(-20, 21))
        assert all(check_bead_square(x, 1, 1, 0, 0) for x in range(-20, 21))
        assert all(check_bead_square(x, 3, 4, 2, -1) for x in range(-20, 21))

    def test_uglov_diagram_cases(self):
        assert check_uglov_diagram(P((3,)), 2, 3, 2, 3)
        for n in range(11):
            for p in partitions_of(n):
                assert check_uglov_diagram(p, 3, 4, 0, 0)

    def test_uglov_diagram_all_coprime_levels(self):
        for e in range(1, 7):
            for m in range(1, 7):
                if gcd(e, m) != 1:
                    continue
                for s, t in ((0, 0), (2, -1)):
                    for n in range(7):
                        for p in partitions_of(n):
                            assert check_uglov_diagram(p, e, m, s, t)

    def test_uglov_diagram_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            check_uglov_diagram(P((1,)), 2, 4, 0, 0)

    def test_core_matched_diagram_catches_shift_mutant(self, monkeypatch):
        # the e-side correction sends target component 0 one step too far
        real = affine_perm
        failed = total = 0
        for e, m in ((1, 2), (2, 3), (3, 4), (3, 5), (4, 3)):
            def off_by_one(a, b, s, e=e):
                ap = real(a, b, s)
                if a != e:
                    return ap
                return AffinePerm(a, ap.perm, (ap.shifts[0] + 1,) + ap.shifts[1:])

            monkeypatch.setattr(levelrank, "affine_perm", off_by_one)
            for n in range(7):
                for p in partitions_of(n):
                    failed += not check_core_matched_diagram(p, e, m)
                    total += 1
        assert failed > 0.9 * total

    def test_core_matched_diagram_sample(self):
        for n in range(9):
            for p in partitions_of(n):
                for e, m in ((2, 3), (3, 5), (4, 3)):
                    assert check_core_matched_diagram(p, e, m)


def object_routes(p, e, m, s, t, make_perm=affine_perm):
    """The two routes of check_uglov_diagram through the public, validated
    objects: split and (on the e-side) the Uglov map, with the affine
    correction read off its definition on components, not on beads."""
    act = apply_affine_on_components
    route_e = uglov(act(make_perm(e, m, s), uglov(charged(p, s), e)), m)
    route_m = act(make_perm(m, e, t), uglov(charged(p, t), m))
    return route_e, route_m


def pair_routes(p, e, m, s, t):
    """The same two routes on canonical (floor, tail) pairs."""
    route_e = regroup(_shift_pairs(affine_perm(e, m, s), regroup(_abaci((p,), (s,)), e)), m)
    route_m = _shift_pairs(affine_perm(m, e, t), regroup(_abaci((p,), (t,)), m))
    return route_e, route_m


class TestRouteAgreement:
    CHARGES = ((0, 0), (2, -1), (-3, 4), (7, -5))

    def test_object_routes_match_pair_routes(self):
        cases = 0
        for e in range(1, 7):
            for m in range(1, 7):
                if gcd(e, m) != 1:
                    continue
                for s, t in self.CHARGES:
                    for n in range(9):
                        for p in partitions_of(n):
                            obj_e, obj_m = object_routes(p, e, m, s, t)
                            pair_e, pair_m = pair_routes(p, e, m, s, t)
                            assert _abaci(obj_e.components, obj_e.charges) == pair_e
                            assert _abaci(obj_m.components, obj_m.charges) == pair_m
                            assert check_uglov_diagram(p, e, m, s, t) == (obj_e == obj_m)
                            cases += 1
        # 23 coprime pairs, 4 charge pairs, 67 partitions of size <= 8
        assert cases == 23 * 4 * 67

    def test_verdicts_agree_under_a_shift_mutant(self, monkeypatch):
        # the same wrong correction in both checks: the verdicts still agree,
        # and now some are false, so the agreement is not only on true ones
        real = affine_perm

        def off_by_one(a, b, s):
            ap = real(a, b, s)
            return AffinePerm(a, ap.perm, (ap.shifts[0] + 1,) + ap.shifts[1:])

        monkeypatch.setattr(levelrank, "affine_perm", off_by_one)
        failed = total = 0
        for e, m in ((2, 3), (3, 4), (5, 2)):
            for s, t in self.CHARGES:
                for n in range(7):
                    for p in partitions_of(n):
                        obj_e, obj_m = object_routes(p, e, m, s, t, off_by_one)
                        verdict = check_uglov_diagram(p, e, m, s, t)
                        assert verdict == (obj_e == obj_m)
                        failed += not verdict
                        total += 1
        assert 0 < failed < total


class TestSeriesChargeIndependence:
    def test_corrected_split_does_not_depend_on_the_charge(self):
        # route one of thm2 corrects the split at charge s by the (e, m, s)
        # affine permutation.  The result is the one at s = 0, so thm2's
        # verdicts cannot see a wrong series charge; the charge is pinned by
        # test_partitions' TestCoreMatchedSplit and test_cli's series and core digests
        pairs = [(e, m) for e in range(1, 9) for m in range(1, 9) if gcd(e, m) == 1]
        assert len(pairs) == 43
        cases = moved = 0
        for p in chain.from_iterable(partitions_of(n) for n in range(7)):
            for e, m in pairs:
                at_zero = regroup(_abaci((p,), (0,)), e)
                expected = _shift_pairs(affine_perm(e, m, 0), at_zero)
                for s in range(-6, 7):
                    split = regroup(_abaci((p,), (s,)), e)
                    assert _shift_pairs(affine_perm(e, m, s), split) == expected
                    # control: the permutation of the next charge moves it
                    wrong = _shift_pairs(affine_perm(e, m, s + 1), split)
                    moved += wrong != expected
                    cases += 1
        # 30 partitions of size <= 6, 43 pairs, 13 charges
        assert cases == moved == 30 * 43 * 13

    def test_series_map_correction_is_the_split_at_charge_s(self):
        # the m = 1 case, which e_quotient_charged applies: the charge-0
        # split corrected by affine_perm(e, 1, -s) is the split at charge s,
        # on abaci and, by the component action, on charged multipartitions
        cases = moved = 0
        for p in chain.from_iterable(partitions_of(n) for n in range(7)):
            for e in range(1, 13):
                at_zero = regroup(_abaci((p,), (0,)), e)
                quotient = uglov(charged(p, 0), e)
                for s in range(-30, 31):
                    split = regroup(_abaci((p,), (s,)), e)
                    assert _shift_pairs(affine_perm(e, 1, -s), at_zero) == split
                    on_components = apply_affine_on_components(affine_perm(e, 1, -s), quotient)
                    assert on_components == uglov(charged(p, s), e)
                    # control: the correction for the next charge moves it
                    moved += _shift_pairs(affine_perm(e, 1, -(s + 1)), at_zero) != split
                    cases += 1
        # 30 partitions of size <= 6, 12 levels, 61 charges
        assert cases == moved == 30 * 12 * 61


def floor_only_shift(ap, abaci):
    """Mutant of _shift_pairs: the floor moves but the tail does not."""
    out = [None] * ap.e
    for (floor, tail), j in zip(abaci, ap.perm):
        out[j] = (floor + ap.shifts[j], tail)
    return tuple(out)


def source_indexed_shift(ap, abaci):
    """Mutant of _shift_pairs: shifts indexed by the source component i
    instead of the target perm[i]."""
    out = [None] * ap.e
    for i, ((floor, tail), j) in enumerate(zip(abaci, ap.perm)):
        d = ap.shifts[i]
        out[j] = (floor + d, tuple(x + d for x in tail))
    return tuple(out)


class TestPairShiftMutants:
    LEVELS = ((2, 3), (3, 4), (4, 3), (3, 5))

    def verdicts(self, monkeypatch, mutant):
        monkeypatch.setattr(levelrank, "_shift_pairs", mutant)
        return {
            (p, e, m): check_core_matched_diagram(p, e, m)
            for e, m in self.LEVELS
            for n in range(7)
            for p in partitions_of(n)
        }

    def test_source_indexed_shift_is_caught(self, monkeypatch):
        verdicts = self.verdicts(monkeypatch, source_indexed_shift)
        assert sum(not ok for ok in verdicts.values()) > 0.9 * len(verdicts)

    def test_floor_only_shift_is_caught_off_simultaneous_cores(self, monkeypatch):
        # a partition that is both an e-core and an m-core splits into empty
        # components on both sides at the core-matched charges, so it has no
        # tail to leave behind; every other partition must fail
        verdicts = self.verdicts(monkeypatch, floor_only_shift)
        for (p, e, m), ok in verdicts.items():
            assert ok == (is_e_core(p, e) and is_e_core(p, m))
        assert sum(not ok for ok in verdicts.values()) > 0.8 * len(verdicts)


def misfiled_bead_regroup(abaci, m):
    """Mutant of regroup: the first tail bead of the abacus, in component
    order, is filed under residue (r + 1) % m instead of r."""
    e = len(abaci)
    base = min(floor for floor, _ in abaci)
    buckets = [[] for _ in range(m)]
    first = True
    for i, (_, tail) in enumerate(abaci):
        for x in tail:
            buckets[(x % m + first) % m].append(e * (x // m) + i)
            first = False
    raised = [(i, floor) for i, (floor, _) in enumerate(abaci) if floor > base]
    for rho, beads in enumerate(buckets):
        low = -((rho - base) // m)
        for i, floor in raised:
            if (top := -((rho - floor) // m)) > low:
                beads.extend(range(e * low + i, e * top + i, e))
        beads.sort(reverse=True)
        floor = e * low
        while beads and beads[-1] == floor:
            beads.pop()
            floor += 1
        buckets[rho] = (floor, tuple(beads))
    return tuple(buckets)


def first_floor_regroup(abaci, m):
    """Mutant of regroup: low is taken from the first component's floor
    instead of the lowest floor."""
    e = len(abaci)
    base = abaci[0][0]
    buckets = [[] for _ in range(m)]
    for i, (_, tail) in enumerate(abaci):
        for x in tail:
            buckets[x % m].append(e * (x // m) + i)
    raised = [(i, floor) for i, (floor, _) in enumerate(abaci) if floor > base]
    for rho, beads in enumerate(buckets):
        low = -((rho - base) // m)
        for i, floor in raised:
            if (top := -((rho - floor) // m)) > low:
                beads.extend(range(e * low + i, e * top + i, e))
        beads.sort(reverse=True)
        floor = e * low
        while beads and beads[-1] == floor:
            beads.pop()
            floor += 1
        buckets[rho] = (floor, tuple(beads))
    return tuple(buckets)


def lowest_lift_regroup(abaci, m):
    """Mutant of regroup: each raised floor is walked from base + 1, so the
    lowest lifted bead, base itself, is lost."""
    e = len(abaci)
    base = min(floor for floor, _ in abaci)
    buckets = [[] for _ in range(m)]
    for i, (floor, tail) in enumerate(abaci):
        for x in tail:
            buckets[x % m].append(e * (x // m) + i)
        for x in range(base + 1, floor):
            buckets[x % m].append(e * (x // m) + i)
    for rho, beads in enumerate(buckets):
        beads.sort(reverse=True)
        floor = -e * ((rho - base) // m)
        while beads and beads[-1] == floor:
            beads.pop()
            floor += 1
        buckets[rho] = (floor, tuple(beads))
    return tuple(buckets)


def long_run_regroup(abaci, m):
    """Mutant of regroup: the whole-run test is off by one, so a residue
    whose beads miss one position between its floor and the highest is
    finished as one run.  Its climb stops at an empty bucket, so it errs
    only where that test does."""
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
            if beads[0] - floor == n:
                buckets[rho] = (floor + n, ())
            else:
                while beads and beads[-1] == floor:
                    beads.pop()
                    floor += 1
                buckets[rho] = (floor, tuple(beads))
        else:
            buckets[rho] = (floor, ())
    return tuple(buckets)


class TestRegroupMutants:
    @pytest.fixture(autouse=True)
    def fresh_cores(self):
        # e_core and the series quotients it reads are cached and computed
        # with regroup: start from none cached, so the counts below do not
        # depend on the tests run before, and leave none made by a mutant
        caches = (partitions.e_core, partitions.e_quotient_charged)
        for cached in caches:
            cached.cache_clear()
        yield
        for cached in caches:
            cached.cache_clear()

    @staticmethod
    def patch(monkeypatch, mutant):
        monkeypatch.setattr(partitions, "regroup", mutant)
        monkeypatch.setattr(levelrank, "regroup", mutant)

    @pytest.mark.parametrize(
        "mutant, sweep, misses, cases",
        [
            (misfiled_bead_regroup, bead_sweep, 1575, 2128),
            (misfiled_bead_regroup, wide_floor_sweep, 472, 600),
            (misfiled_bead_regroup, thm2_level_sweep, 506, 864),
            (first_floor_regroup, bead_sweep, 868, 2128),
            (first_floor_regroup, wide_floor_sweep, 360, 600),
            (first_floor_regroup, thm2_level_sweep, 207, 864),
            (lowest_lift_regroup, bead_sweep, 1544, 2128),
            (lowest_lift_regroup, wide_floor_sweep, 480, 600),
            (lowest_lift_regroup, thm2_level_sweep, 504, 864),
            (long_run_regroup, bead_sweep, 834, 2128),
            (long_run_regroup, wide_floor_sweep, 42, 600),
            (long_run_regroup, thm2_level_sweep, 205, 864),
            (long_run_regroup, finish_sweep, 1, 4),
        ],
    )
    def test_fails_bead_windows(self, monkeypatch, mutant, sweep, misses, cases):
        self.patch(monkeypatch, mutant)
        outcomes = []
        for comps, m in sweep():
            try:
                image = as_pairs(uglov(from_pairs(comps), m))
            except ValueError:  # a misfiled bead can leave a non-canonical tail
                image = None
            outcomes.append(image == regroup_on_beads(comps, m))
        assert (outcomes.count(False), len(outcomes)) == (misses, cases)

    @pytest.mark.parametrize(
        "mutant, failed",
        [
            (misfiled_bead_regroup, 90),
            (first_floor_regroup, 106),
            (lowest_lift_regroup, 113),
            (long_run_regroup, 67),
        ],
    )
    def test_fails_core_matched_diagram(self, monkeypatch, mutant, failed):
        self.patch(monkeypatch, mutant)
        verdicts = []
        for e, m in TestPairShiftMutants.LEVELS:
            for n in range(7):
                for p in partitions_of(n):
                    verdicts.append(check_core_matched_diagram(p, e, m))
        # 4 level pairs, 30 partitions of size <= 6
        assert (verdicts.count(False), len(verdicts)) == (failed, 120)
