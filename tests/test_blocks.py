import random
from fractions import Fraction
from math import gcd

import pytest

from abacore import blocks, suites
from abacore.blocks import (
    OmegaIsOne,
    block_match_report,
    check_content_lemma,
    residue_multiset,
    series_blocks,
)
from abacore.hc_series import (
    GL,
    GU,
    CuspidalPairGL,
    HeckeParam,
    HeckeSpecialization,
    hc_pairs,
    specialization,
)
from abacore.partitions import (
    ChargedMultiPartition,
    Partition,
    e_core,
    e_quotient_charged,
    multipartitions_of,
    partitions_of,
    to_beta,
)
from abacore.levelrank import uglov
from abacore.polynomials import ennola_e
from abacore.suites import run_suite
from oracles import (
    cells,
    check_core_key_equivalence,
    oracle_param,
    residue_key_oracle,
    rim_hook_core,
    root_key_oracle,
)

P = Partition


def _named(report):
    """block_match_report's tuples with each partition rendered as text."""
    return [
        (str(core_e), str(core_m), [str(p) for p in members], sizes_e, sizes_m, ok)
        for core_e, core_m, members, sizes_e, sizes_m, ok in report
    ]


def _gl_blocks(e, a, core, m):
    """The level-m GL blocks of the level-e series of rank a over core."""
    return series_blocks(CuspidalPairGL(core.size + a * e, e, a, core), m)


class TestResidueMultisets:
    def test_examples(self):
        one = ChargedMultiPartition((P((1,)),), (0,))
        assert residue_multiset(one) == ((0, 1),)
        two = ChargedMultiPartition((P((2,)),), (0,))
        assert residue_multiset(two) == ((0, 1), (1, 1))
        mixed = ChargedMultiPartition((P(()), P((1,))), (0, 0))
        assert residue_multiset(mixed) == ((1, 1),)

    def test_total_mass(self):
        cmp0 = ChargedMultiPartition((P((3, 1)), P((2, 2))), (2, -1))
        assert sum(c for _, c in residue_multiset(cmp0)) == 8

    def test_level_mismatch(self):
        # the level is the component count: no second level can be passed,
        # so none can disagree with it
        box = ChargedMultiPartition((P((1,)),), (1,))
        with pytest.raises(TypeError):
            residue_multiset(box, 2)
        assert residue_multiset(box) == ((1, 1),)
        padded = ChargedMultiPartition((P((1,)), P(())), (1, 0))
        assert residue_multiset(padded) == ((2, 1),)

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_matches_cell_oracle(self, e):
        # e*(content + s_c) + c counted over the raw cell set of component c
        charge_vectors = [(0,) * e, tuple(range(e)), tuple(3 - 2 * c for c in range(e))]
        for size in range(6):
            for mp in multipartitions_of(e, size):
                for charges in charge_vectors:
                    counts = {}
                    for c, (p, s) in enumerate(zip(mp, charges)):
                        for i, j in cells(p.parts):
                            v = e * (j - i + s) + c
                            counts[v] = counts.get(v, 0) + 1
                    cmp = ChargedMultiPartition(mp, charges)
                    assert residue_multiset(cmp) == tuple(sorted(counts.items()))

    def test_uniform_charge_shift_preserves_key_equality(self):
        # shifting all charges by c shifts every residue by e*c
        e = 3
        charges = (1, 1, 1)
        mps = [[p.parts for p in mp] for mp in multipartitions_of(e, 2)]
        for c in (-2, 1, 4):
            shifted = tuple(s + c for s in charges)
            for m in (2, 4, 5):
                for a in mps:
                    for b in mps:
                        base = residue_key_oracle(a, charges, e, m) == (
                            residue_key_oracle(b, charges, e, m)
                        )
                        moved = residue_key_oracle(a, shifted, e, m) == (
                            residue_key_oracle(b, shifted, e, m)
                        )
                        assert base == moved


def _dense(pairs, m):
    """The oracle's sorted (residue, count) pairs as the library's key: the
    length-m tuple of counts, residue by residue."""
    counts = [0] * m
    for residue, count in pairs:
        counts[residue] = count
    return tuple(counts)


def _key_disagreements(index_offset=0):
    """Compare the level-m blocks of every series of hc_pairs(n, e), n <= 8,
    e <= 4, m = 2..7 with e % m != 0, against the residue oracle's grouping.
    Returns ((series, m) pairs compared, disagreements)."""
    series = wrong = 0
    for n in range(1, 9):
        for e in range(1, 5):
            for m in (m for m in range(2, 8) if e % m != 0):
                for pair in hc_pairs(n, e):
                    charges = e_quotient_charged(pair.core, e).charges
                    grouped = {}
                    for mp in multipartitions_of(e, pair.a):
                        key = residue_key_oracle(
                            [q.parts for q in mp], charges, e, m, index_offset
                        )
                        grouped.setdefault(key, set()).add(mp)
                    found = series_blocks(pair, m)
                    series += 1
                    wrong += {frozenset(b) for b in found} != {
                        frozenset(g) for g in grouped.values()
                    }
    return series, wrong


# (components, core, e, key): the oracle's level-2 keys of residues {1, 2},
# {3} and {5}, at the series charges (1,), (1, 1) and (1, 2) of the cores ()
# and (1)
FIXED_KEYS = [
    (((2,),), P(()), 1, ((0, 1), (1, 1))),
    (((), (1,)), P(()), 2, ((1, 1),)),
    (((), (1,)), P((1,)), 2, ((1, 1),)),
]


def _kernel_disagreements(index_offset=0):
    """How many FIXED_KEYS the library's box-count kernel keys otherwise than
    the residue oracle, which reads component j as j + index_offset."""
    wrong = 0
    for parts, core, e, _ in FIXED_KEYS:
        charges = e_quotient_charged(core, e).charges
        expected = residue_key_oracle(parts, charges, e, 2, index_offset)
        mp = tuple(P(q) for q in parts)
        values = blocks._level_values(core, e, 2)
        wrong += blocks._root_counts(mp, *values) != _dense(expected, 2)
    return wrong


class TestResidueKeyOracle:
    def test_fixed_examples(self):
        # the oracle's keys, and the library's kernel against them
        for parts, core, e, expected in FIXED_KEYS:
            charges = e_quotient_charged(core, e).charges
            assert residue_key_oracle(parts, charges, e, 2) == expected
        assert _kernel_disagreements() == 0

    def test_sweep_series(self):
        # 329 (series, m) pairs over the partitions of 1..8
        assert _key_disagreements() == (329, 0)

    def test_component_offset_disagrees(self):
        # negative control: an oracle reading component j as j + 1 shifts
        # every key by 1, so the kernel comparison must see it wherever the
        # shift moves a key: not at residues {1, 2} mod 2, which it swaps.
        # Grouping is blind to a uniform shift, so the series sweep is not
        # the place for this control
        assert _kernel_disagreements(index_offset=1) == 2


def _root_key(mp, params, at_root):
    """The root key of mp at a primitive at_root-th root, its nonzero
    entries read as (reduced fraction in [0, 1), count) pairs, as
    root_key_oracle gives it."""
    d, omega, alphas = blocks._root_values(params, at_root)
    counts = blocks._root_counts(mp, d, omega, alphas)
    return tuple((Fraction(k, d), c) for k, c in enumerate(counts) if c)


def _relabelling(variant, m):
    """(R, f): the root R at which the variant's parameters give level-m
    blocks, m for GL and ennola_e(m) for GU, and the factor f that takes a
    level-m value v to its value f * v mod 2R at a primitive R-th root."""
    root = m if variant == GL else ennola_e(m)
    return root, 2 if variant == GL else root + 2


def _root_disagreements(variant, shift=0):
    """Compare the variant's parameters of every series with n, e <= 12 and
    a >= 1, evaluated at the root R of every m <= 12, with the level-m key
    data relabelled by v -> f * v mod 2R; shift raises the first tau exponent,
    and for GU sets its sign by the exponent's parity.  Returns (keyed cases,
    cases refused exactly where m | e, disagreements)."""
    keyed = refused = wrong = 0
    for n in range(1, 13):
        for e in range(1, 13):
            for pair in (pr for pr in hc_pairs(n, e) if pr.a >= 1):
                params = specialization(pair, variant)
                first, *rest = params.tau_params
                exponent = first.exponent + shift
                sign = first.sign if variant == GL else (-1 if exponent % 2 else 1)
                tau = (HeckeParam(sign, exponent), *rest)
                params = HeckeSpecialization(tau, params.sigma_params)
                for m in range(1, 13):
                    root, f = _relabelling(variant, m)
                    if e % m == 0:
                        with pytest.raises(OmegaIsOne):
                            blocks._root_values(params, root)
                        refused += 1
                        continue
                    _, omega, alphas = blocks._level_values(pair.core, e, m)
                    relabelled = (
                        2 * root,
                        f * omega % (2 * root),
                        tuple(f * a % (2 * root) for a in alphas),
                    )
                    keyed += 1
                    wrong += blocks._root_values(params, root) != relabelled
    return keyed, refused, wrong


class TestRootKeys:
    def test_gl_key_matches_integer_residues(self):
        pair = CuspidalPairGL(2, 2, 1, P(()))
        params = specialization(pair, GL)
        for mp in multipartitions_of(2, 1):
            key = _root_key(mp, params, 3)
            assert all(v.denominator in (1, 3) for v, _ in key)

    def test_equal_and_distinct_keys(self):
        pair = CuspidalPairGL(2, 1, 2, P(()))
        params = specialization(pair, GL)
        k2a = _root_key((P((2,)),), params, 2)
        k2b = _root_key((P((1, 1)),), params, 2)
        assert k2a == k2b
        k3a = _root_key((P((2,)),), params, 3)
        k3b = _root_key((P((1, 1)),), params, 3)
        assert k3a != k3b

    def test_empty_multipartition(self):
        pair = CuspidalPairGL(2, 2, 1, P(()))
        params = specialization(pair, GL)
        assert _root_key((P(()), P(())), params, 3) == ()

    def test_omega_one_raises(self):
        pair = CuspidalPairGL(2, 2, 1, P(()))
        params = specialization(pair, GL)
        with pytest.raises(OmegaIsOne):
            _root_key((P((1,)), P(())), params, 2)
        with pytest.raises(OmegaIsOne):
            _root_key((P((1,)), P(())), params, 1)

    def test_gl_root_values_are_level_values_doubled(self):
        # x^(a_j) and -x^e at a primitive m-th root are the level-m values
        # doubled in (1/2m)Z/Z, and refuse exactly where m | e: so the GL
        # root key groups as the level key, on 1,749 (series, m) cases
        assert _root_disagreements(GL) == (1_749, 483, 0)
        # negative control: x^(a_0 + 1) moves the first value by 2 mod 2m,
        # so every keyed case must disagree
        assert _root_disagreements(GL, shift=1) == (1_749, 483, 1_749)

    def test_gu_root_values_are_level_values_relabelled(self):
        # Ennola duality: the GU parameters at a primitive R-th root, R =
        # ennola_e(m), are the level-m values v taken to (R + 2) * v in
        # (1/2R)Z/Z, and refuse exactly where m | e, on the same 1,749 cases
        assert _root_disagreements(GU) == (1_749, 483, 0)
        # negative control: (-x)^(a_0 + 1) moves the first value by R + 2
        # mod 2R, the image of 1, so every keyed case must disagree
        assert _root_disagreements(GU, shift=1) == (1_749, 483, 1_749)

    def test_gu_relabelling_is_one_to_one(self):
        # v -> (R + 2) * v mod 2R is well defined on Z/m and one to one, so
        # GU keys group exactly as GL keys, at every level the CLI accepts
        for m in range(1, 2 * suites.LEVEL_MAX + 1):
            root, f = _relabelling(GU, m)
            assert f * m % (2 * root) == 0
            assert len({f * v % (2 * root) for v in range(m)}) == m

    def test_gu_key_at_paired_root_groups_like_gl(self):
        # the sign-twisted parameters evaluated at the paired cyclotomic
        # index induce exactly the integer-residue grouping
        for n, e, m in ((4, 2, 3), (5, 2, 5), (4, 3, 2), (6, 3, 4)):
            for pair in (pr for pr in hc_pairs(n, e) if pr.a >= 1):
                gl_blocks = series_blocks(pair, m)
                assert series_blocks(pair, m, GU) == gl_blocks

    def test_gu_blocks_raise_where_gu_keys_do_not_group_like_gl(self, monkeypatch):
        # negative control: GU key data collapsed to one value would merge
        # every GU block, so series_blocks must raise instead of giving GL
        # blocks under the GU label, while GL still gives its blocks
        pair = CuspidalPairGL(5, 2, 2, P((1,)))
        gl_blocks = series_blocks(pair, 3, GL)
        assert len(gl_blocks) > 1
        _collapse_gu_values(monkeypatch, [pair])
        with pytest.raises(ArithmeticError, match="^GU keys at 6 do not group"):
            series_blocks(pair, 3, GU)
        assert series_blocks(pair, 3, GL) == gl_blocks


def _compare_with_oracle(mp, params, at_root):
    """Assert that the root key agrees with the Fraction oracle; returns
    True when the symmetric ratio is 1, where both must refuse."""
    expected = root_key_oracle(
        [p.parts for p in mp],
        [oracle_param(t) for t in params.tau_params],
        [oracle_param(s) for s in params.sigma_params],
        at_root,
    )
    if expected is None:
        with pytest.raises(OmegaIsOne):
            _root_key(mp, params, at_root)
        return True
    assert _root_key(mp, params, at_root) == expected, (mp, at_root)
    return False


class TestRootKeyOracle:
    def test_sweep_series_parameters(self):
        # every multipartition of every series with n <= 7, e <= 4, both
        # variants, roots 2..7
        omega_one = keyed = 0
        for n in range(1, 8):
            for e in range(1, 5):
                for pair in hc_pairs(n, e):
                    if pair.a == 0:
                        continue
                    for variant in (GL, GU):
                        params = specialization(pair, variant)
                        for mp in multipartitions_of(e, pair.a):
                            for at_root in range(2, 8):
                                if _compare_with_oracle(mp, params, at_root):
                                    omega_one += 1
                                else:
                                    keyed += 1
        assert (keyed, omega_one) == (1442, 346)

    def test_argument_with_denominator_three(self):
        # every argument is k/R or k/R + 1/2, so denominators 3 and 6 come
        # from roots R divisible by 3; the tau signs here (-1 on even
        # exponents) are ones specialization never builds.  omega = x^3 + 1/2
        # is 0 exactly at roots 2 and 6
        tau = (HeckeParam(-1, 2), HeckeParam(1, 4), HeckeParam(-1, 0))
        params = HeckeSpecialization(tau, (HeckeParam(1, 0), HeckeParam(1, 3)))
        for a in range(4):
            for mp in multipartitions_of(3, a):
                for at_root in range(2, 8):
                    refused = _compare_with_oracle(mp, params, at_root)
                    assert refused == (at_root in (2, 6))
        # at root 3: -x^2 is 1/2 + 2/3, x^4 is 1/3 and omega is 1/2
        key = _root_key((P((2,)), P((1,)), P(())), params, 3)
        assert key == ((Fraction(1, 6), 1), (Fraction(1, 3), 1), (Fraction(2, 3), 1))

    def test_first_symmetric_parameter_must_be_one(self):
        sigma = [(Fraction(1, 3), 0), (Fraction(0), 1)]
        with pytest.raises(ValueError, match="first symmetric"):
            root_key_oracle([(1,)], [(Fraction(0), 0)], sigma, 2)


class TestSideTableNumbers:
    def test_examples(self):
        # at (e, m) = (3, 2): the images of (3) and (1, 1, 1) share a block
        # of their 3-series, and those of (3) and (2, 1) do not
        (pair,) = hc_pairs(3, 3)
        numbers = blocks._side_blocks(pair, 2)[1]

        def number(p):
            return numbers[e_quotient_charged(p, 3).components]

        assert number(P((3,))) == number(P((1, 1, 1)))
        assert number(P((3,))) != number(P((2, 1)))

    def test_member_m_cores_group_as_the_series_blocks(self):
        # sharing an m-core is sharing a block: the members' 3-core classes,
        # read through the series map, are the blocks of their 2-series
        core = P(())
        classes = {}
        for p in partitions_of(6):
            if e_core(p, 2) == core:
                image = e_quotient_charged(p, 2).components
                classes.setdefault(e_core(p, 3), set()).add(image)
        assert len(classes) > 1
        expected = {frozenset(b) for b in _gl_blocks(2, 3, core, 3)}
        assert {frozenset(c) for c in classes.values()} == expected


class TestSeriesBlocks:
    def test_examples(self):
        one_block = _gl_blocks(1, 2, P(()), 2)
        assert [
            sorted(p.parts for (p,) in block) for block in one_block
        ] == [[(1, 1), (2,)]]
        two_blocks = _gl_blocks(1, 2, P(()), 3)
        assert len(two_blocks) == 2
        empty_series = _gl_blocks(3, 0, P((1,)), 2)
        assert empty_series == (((P(()), P(()), P(())),),)

    def test_level_one_blocks_are_m_cores(self):
        # at level 1 the key partition must recover the classical grouping
        # of partitions by their m-core
        for n in range(1, 9):
            for m in range(2, 6):
                blocks = _gl_blocks(1, n, P(()), m)
                grouped = {}
                for p in partitions_of(n):
                    grouped.setdefault(e_core(p, m).parts, set()).add((p,))
                expected = {frozenset(v) for v in grouped.values()}
                assert {frozenset(b) for b in blocks} == expected

    def test_covers_all_multipartitions(self):
        for e, a, core, m in ((2, 2, P(()), 3), (3, 2, P((1,)), 2)):
            blocks = _gl_blocks(e, a, core, m)
            flattened = sorted(
                tuple(p.parts for p in mp) for block in blocks for mp in block
            )
            assert flattened == sorted(
                tuple(p.parts for p in mp) for mp in multipartitions_of(e, a)
            )

    def test_omega_one_hard_error(self):
        # m dividing e (m = 1 included) specializes the symmetric ratio to 1
        # on both variants; a GU refusal says GU whatever the series, the
        # singleton (1) at a = 0, which needs no key, included
        for e, a, core, m in (
            (2, 1, P(()), 2), (4, 1, P((2,)), 2), (3, 1, P(()), 1),
            (2, 1, P(()), 1), (4, 1, P(()), 2), (1, 2, P(()), 1),
            (2, 0, P((1,)), 2),
        ):
            pair = CuspidalPairGL(core.size + a * e, e, a, core)
            for variant, label in ((GL, ""), (GU, "GU ")):
                message = f"^level {m} {label}blocks are undefined at level e={e}$"
                with pytest.raises(OmegaIsOne, match=message):
                    series_blocks(pair, m, variant)

    @pytest.mark.parametrize("a", [1, 0])
    def test_rejects_a_core_that_is_no_e_core(self, a):
        # (2) is no 2-core: it heads no series, even one whose only member,
        # at a = 0, needs no key
        with pytest.raises(ValueError, match=r"^\(2,\) is not a 2-core$") as exc:
            _gl_blocks(2, a, P((2,)), 3)
        assert not isinstance(exc.value, OmegaIsOne)

    @pytest.mark.parametrize("e", [0, -1])
    def test_rejects_nonpositive_e(self, e):
        # every m divides e = 0, so the level check must precede the m | e test
        with pytest.raises(ValueError, match="^e must be >= 1$") as exc:
            _gl_blocks(e, 1, P(()), 2)
        assert not isinstance(exc.value, OmegaIsOne)

    @pytest.mark.parametrize("variant", [GL, GU])
    @pytest.mark.parametrize("m", [0, -1])
    def test_series_blocks_rejects_nonpositive_m(self, m, variant):
        # GU keys are taken at ennola_e(m), whose own check names e
        toral = CuspidalPairGL(4, 2, 2, P(()))
        for pair in (toral, CuspidalPairGL(3, 2, 0, P((2, 1)))):
            with pytest.raises(ValueError, match="^m must be >= 1$") as exc:
                series_blocks(pair, m, variant)
            assert not isinstance(exc.value, OmegaIsOne)

    @staticmethod
    def _refusal_disagreements():
        """(cases, m | e cases, disagreements, GU ArithmeticErrors) over every
        series with n <= 8 and e <= 12 and every m <= 12: a disagreement is a
        case where GL or GU blocks raise OmegaIsOne other than exactly when m
        divides e, or where GU keys do not group as GL keys (ArithmeticError),
        which no refusal agrees with."""
        def refuses(pair, m, variant):
            try:
                series_blocks(pair, m, variant)
            except OmegaIsOne:
                return True
            except ArithmeticError:
                return None
            return False

        cases = dividing = disagreements = errors = 0
        for n in range(1, 9):
            for e in range(1, 13):
                for pair in hc_pairs(n, e):
                    for m in range(1, 13):
                        cases += 1
                        dividing += e % m == 0
                        gu = refuses(pair, m, GU)
                        errors += gu is None
                        disagreements += not (
                            refuses(pair, m, GL) == gu == (e % m == 0)
                        )
        return cases, dividing, disagreements, errors

    def test_gl_and_gu_refuse_the_same_levels(self, monkeypatch):
        assert self._refusal_disagreements() == (6372, 1755, 0, 0)
        # negative control: GU root keys taken at m itself, not ennola_e(m).
        # Both variants refuse by m | e alone, so the mutant shows only in
        # the side table's GU values: they do not group as GL keys in 170
        # cases, and in 46, where e is an odd multiple of m / 2, their ratio
        # is 1, so GL and GU both refuse there though m does not divide e
        monkeypatch.setattr(blocks, "ennola_e", lambda m: m)
        assert self._refusal_disagreements() == (6372, 1755, 216, 170)

    def test_canonical_order(self):
        # members sorted, then blocks by first member, both by part tuples,
        # whatever order the oracle groups them in
        def key(mp):
            return tuple(p.parts for p in mp)

        rng = random.Random(14)
        for e in range(1, 4):
            charges = e_quotient_charged(P(()), e).charges
            for a in range(6):
                mps = list(multipartitions_of(e, a))
                rng.shuffle(mps)
                for m in range(1, 6):
                    if e % m == 0:
                        continue
                    grouped = {}
                    for mp in mps:
                        k = residue_key_oracle([p.parts for p in mp], charges, e, m)
                        grouped.setdefault(k, []).append(mp)
                    expected = sorted(
                        (sorted(block, key=key) for block in grouped.values()),
                        key=lambda block: key(block[0]),
                    )
                    result = _gl_blocks(e, a, P(()), m)
                    assert result == tuple(tuple(block) for block in expected)

    def test_series_blocks_rejects_unknown_variant(self):
        # no spelling of the variant other than "gl" and "gu" falls back
        # to GL blocks, for toral and cuspidal pairs alike
        toral = CuspidalPairGL(4, 2, 2, P(()))
        for pair in (toral, CuspidalPairGL(3, 2, 0, P((2, 1)))):
            assert series_blocks(pair, 3, GL) == series_blocks(pair, 3)
            for variant in ("xyz", "GU", "GL", ""):
                with pytest.raises(ValueError, match=f"unknown variant {variant!r}"):
                    series_blocks(pair, 3, variant)


class TestContentLemma:
    def test_examples(self):
        assert check_content_lemma(P((2,)), 0, 1)
        assert check_content_lemma(P((2,)), 0, 2)
        assert check_content_lemma(P(()), 3, 4)
        assert check_content_lemma(P((2,)), -3, 2)

    @staticmethod
    def _failures():
        """Cases of n <= 7, s in -4..4, e in 1..5 that the check rejects."""
        return [
            (p.parts, s, e)
            for n in range(8)
            for p in partitions_of(n)
            for s in range(-4, 5)
            for e in range(1, 6)
            if not check_content_lemma(p, s, e)
        ]

    def test_sweep_small(self):
        assert sum(len(partitions_of(n)) for n in range(8)) * 9 * 5 == 2025
        assert self._failures() == []

    # negative controls: each mutant feeds the identity a wrong operand; the
    # failure counts were recorded with the identities compared as truncated
    # series, the level-1 identity then checked beside every level
    def test_wrong_core_mutant_fails(self, monkeypatch):
        real = blocks.e_core
        monkeypatch.setattr(
            blocks, "e_core", lambda p, e: real(p, e + 1) if e > 1 else real(p, e)
        )
        assert len(self._failures()) == 1161

    def test_wrong_quotient_charge_mutant_fails(self, monkeypatch):
        # the quotient split off |p, s + 1>: every bead of the abacus that
        # is regrouped to level e moves up by one
        real = blocks.regroup

        def shifted(abaci, e):
            return real(tuple((f + 1, tuple(x + 1 for x in t)) for f, t in abaci), e)

        monkeypatch.setattr(blocks, "regroup", shifted)
        assert len(self._failures()) == 1521

    def test_shifted_level_one_residues_mutant_fails(self, monkeypatch):
        # level-1 residues read at charge s + 1: exactly the e = 1 cases of
        # the 44 nonempty partitions fail, at each of the 9 charges
        real = blocks.residue_multiset

        def shifted(cmp):
            if cmp.level == 1:
                charges = tuple(c + 1 for c in cmp.charges)
                cmp = ChargedMultiPartition(cmp.components, charges)
            return real(cmp)

        monkeypatch.setattr(blocks, "residue_multiset", shifted)
        failures = self._failures()
        assert {e for _, _, e in failures} == {1}
        assert len({parts for parts, _, _ in failures}) == 44
        assert len(failures) == 44 * 9 == 396

    @pytest.mark.parametrize("e", [0, -1])
    def test_rejects_nonpositive_level(self, monkeypatch, e):
        # the partitions layer's message, raised before any bead map runs
        def bead_map(*args):
            raise AssertionError("bead map reached")

        monkeypatch.setattr(blocks, "regroup", bead_map)
        monkeypatch.setattr(blocks, "_abaci", bead_map)
        for p, s in ((P(()), 0), (P((2, 1)), 3), (P((1,)), -2)):
            with pytest.raises(ValueError, match="^e must be >= 1$"):
                check_content_lemma(p, s, e)

    @staticmethod
    def _lowest_nonzero(rm, step, beta, ref):
        """Lowest exponent at which either side of one identity is nonzero:
        count(k) - count(k + step) on the left, [k in beta] - [k in ref] on
        the right, both beta sets being full below their floors."""
        count = dict(rm)
        left = [
            k
            for v in count
            for k in (v, v - step)
            if count.get(k, 0) != count.get(k + step, 0)
        ]
        top = max(beta.floor, ref.floor, *beta.tail, *ref.tail)
        right = [
            k
            for k in range(min(beta.floor, ref.floor), top + 1)
            if (k in beta) != (k in ref)
        ]
        return min(left + right, default=None)

    def test_window_is_lossless(self):
        # no nonzero coefficient of either side of the identity lies below
        # -window, for the window each content-lemma case reports
        cases = []
        run_suite("content-lemma", cases.append, max_n=8)
        assert len(cases) == 67 * 9 * 5  # partitions of 0..8, s = -4..4, e = 1..5
        named = {str(p): p for n in range(9) for p in partitions_of(n)}
        slack = []
        for case in cases:
            p, s, e = named[case["partition"]], case["s"], case["e"]
            charged = ChargedMultiPartition((p,), (s,))
            core = ChargedMultiPartition((e_core(p, e),), (s,))
            rm = residue_multiset(uglov(charged, e))
            lowest = self._lowest_nonzero(rm, e, to_beta(charged), to_beta(core))
            if lowest is not None:
                slack.append(lowest + case["window"])
        # the formula is lossless with exactly 6 exponents to spare here
        assert min(slack) == 6

    def test_comparison_reaches_both_ends(self, monkeypatch):
        # one planted difference fails the check far below any window, and
        # above every value and bead of both sides
        real_rm = blocks.residue_multiset
        real_abaci, real_regroup = blocks._abaci, blocks.regroup
        assert check_content_lemma(P((2, 1)), 0, 2)
        assert check_content_lemma(P((2,)), 0, 2)
        monkeypatch.setattr(
            blocks, "residue_multiset", lambda cmp: real_rm(cmp) + ((-1000, 1),)
        )
        assert not check_content_lemma(P((2, 1)), 0, 2)
        monkeypatch.setattr(blocks, "residue_multiset", real_rm)

        def planted(components, charges):
            # a bead at 1000 on the beta set of (2), not on its empty 2-core
            (floor, tail), core = real_abaci(components, charges)
            return (floor, (1000, *tail)), core

        def stripped(abaci, e):
            # the quotient is split off the beta set of (2) without that bead
            return real_regroup(tuple((f, t[1:]) for f, t in abaci), e)

        monkeypatch.setattr(blocks, "_abaci", planted)
        monkeypatch.setattr(blocks, "regroup", stripped)
        assert not check_content_lemma(P((2,)), 0, 2)


class TestCoreKeyEquivalence:
    def test_examples(self):
        assert check_core_key_equivalence(P((3,)), P((1, 1, 1)), 2, 3)
        # both have 3-core (1), so the common verdict is positive
        assert rim_hook_core((4,), 3) == rim_hook_core((2, 2), 3) == (1,)
        assert check_core_key_equivalence(P((4,)), P((2, 2)), 2, 3)
        assert check_core_key_equivalence(P((2, 1)), P((2, 1)), 2, 3)

    def test_negative_case(self):
        # same size, same 2-core, different 5-cores
        p, r = P((4,)), P((2, 2))
        assert e_core(p, 2) == e_core(r, 2)
        assert e_core(p, 5) != e_core(r, 5)
        assert not check_core_key_equivalence(p, r, 2, 5)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            check_core_key_equivalence(P((2,)), P((1, 1)), 2, 4)  # not coprime
        with pytest.raises(ValueError):
            check_core_key_equivalence(P((2,)), P((1,)), 2, 3)  # sizes differ
        with pytest.raises(ValueError):
            check_core_key_equivalence(P((3,)), P((2, 1)), 2, 3)  # cores differ

    @pytest.mark.parametrize("e, m", [(1, 0), (1, -1), (0, 1)])
    def test_rejects_nonpositive_levels(self, e, m):
        # gcd(e, m) is 1 for each, so only the level check can name the fault
        with pytest.raises(ValueError, match="levels must be >= 1"):
            check_core_key_equivalence(P((2,)), P((1, 1)), e, m)

    def test_sweep_no_violation(self):
        for n in range(1, 9):
            for e in range(1, 7):
                for m in range(1, 7):
                    if gcd(e, m) != 1:
                        continue
                    by_core = {}
                    for p in partitions_of(n):
                        by_core.setdefault(e_core(p, e).parts, []).append(p)
                    for members in by_core.values():
                        for i in range(len(members)):
                            for j in range(i + 1, len(members)):
                                check_core_key_equivalence(
                                    members[i], members[j], e, m
                                )


def _blocks_of(sizes, numbers):
    """The blocks that _side_blocks' sizes and numbers describe, in order."""
    found = [[] for _ in sizes]
    for mp, i in numbers.items():
        found[i].append(mp)
    return tuple(map(tuple, found))


def _numbered(found):
    """The side table of the blocks found, GL and GU alike, as _side_blocks
    gives it: the sizes, each member's number and the GU verdict True."""
    numbers = {mp: i for i, block in enumerate(found) for mp in block}
    return [len(block) for block in found], numbers, True


def _collapse_gu_values(monkeypatch, pairs):
    """Patch the GU key data of the series of pairs to d = 1, where every
    multipartition has one key, so their GU blocks merge into one."""
    real = blocks._root_values
    targets = [specialization(pair, GU) for pair in pairs]

    def collapsed(params, at_root):
        if params in targets:
            return 1, 0, (0,) * len(params.tau_params)
        return real(params, at_root)

    monkeypatch.setattr(blocks, "_root_values", collapsed)


class TestBlockMatchReport:
    def test_small_reports_pass(self):
        report = _named(block_match_report(3, 2, 3))
        assert all(ok for *_, ok in report)
        shapes = [(core_e, core_m, len(members)) for core_e, core_m, members, *_ in report]
        assert shapes == [("1", "", 2), ("2,1", "", 1)]
        assert all(sizes_e == [len(members)] for _, _, members, sizes_e, _, _ in report)

        report2 = _named(block_match_report(2, 2, 3))
        assert all(ok for *_, ok in report2)
        assert {core_m for _, core_m, *_ in report2} == {"2", "1,1"}

    def test_returns_library_values(self):
        # the report holds facts, not output: partitions, int lists, a bool
        report = block_match_report(4, 3, 2)
        assert report and all(len(row) == 6 for row in report)
        for core_e, core_m, members, sizes_e, sizes_m, ok in report:
            assert type(core_e) is type(core_m) is Partition
            assert members and all(type(p) is Partition for p in members)
            assert all(type(size) is int for size in sizes_e + sizes_m)
            assert type(members) is type(sizes_e) is type(sizes_m) is list
            assert type(ok) is bool

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            block_match_report(3, 2, 2)
        with pytest.raises(ValueError):
            block_match_report(5, 4, 6)

    @pytest.mark.parametrize("n, e, m", [(0, 1, 2), (3, 0, 1), (3, 1, 0), (-1, 2, 3)])
    def test_rejects_nonpositive_arguments(self, n, e, m):
        with pytest.raises(ValueError) as exc:
            block_match_report(n, e, m)
        assert str(exc.value) == "n, e, m must be >= 1"

    def test_level_one_side(self):
        # level 1 on either side collapses that side to a single block
        assert all(ok for *_, ok in block_match_report(4, 1, 2))
        assert all(ok for *_, ok in block_match_report(4, 1, 5))

    def test_members_cover_all_partitions(self):
        report = block_match_report(6, 2, 3)
        members = sorted(p for _, _, ms, *_ in report for p in ms)
        assert members == sorted(partitions_of(6))

    def test_colliding_images_fail(self, monkeypatch):
        # negative control: two members of one intersection share an image
        real = blocks.e_quotient_charged

        def collide(p, e):
            return real(P((3,)) if p == P((1, 1, 1)) else p, e)

        monkeypatch.setattr(blocks, "e_quotient_charged", collide)
        report = _named(block_match_report(3, 2, 3))
        assert [(members, ok) for _, _, members, _, _, ok in report] == [
            (["1,1,1", "3"], False),
            (["2,1"], True),
        ]
        _, cases, failures = run_suite("thm1", max_n=4, e=2, m=3)
        assert cases == 1 + 2 + 3 + 5
        assert [(f["n"], f["members"]) for f in failures] == [(3, ["1,1,1", "3"])]

        # still a failure when the one shared image is a whole block: every
        # block split into singletons, GL and GU alike
        real_sides = blocks._side_blocks

        def singletons(pair, at_root):
            _, numbers, _ = real_sides(pair, at_root)
            return _numbered(tuple((mp,) for mp in numbers))

        monkeypatch.setattr(blocks, "_side_blocks", singletons)
        report = block_match_report(3, 2, 3)
        assert [row[3:] for row in report] == [([1], [1], False), ([1], [1], True)]

    def test_image_outside_every_block_fails(self, monkeypatch):
        # negative control: one member's image is no multipartition of the
        # series, so it lies in no block on either side
        real = blocks.e_quotient_charged

        def stray_at(member):
            def image(p, e):
                if p == member:
                    return ChargedMultiPartition((P((9,)),) * e, (0,) * e)
                return real(p, e)

            return image

        monkeypatch.setattr(blocks, "e_quotient_charged", stray_at(P((2, 1))))
        report = _named(block_match_report(3, 2, 3))
        assert [row[2:] for row in report] == [
            (["1,1,1", "3"], [2], [2], True),
            (["2,1"], [], [], False),
        ]

        # still a failure when the other member's image lies in a block
        # whose size is the member count
        monkeypatch.setattr(blocks, "e_quotient_charged", stray_at(P((3,))))
        report = _named(block_match_report(3, 2, 3))
        assert [row[2:] for row in report] == [
            (["1,1,1", "3"], [2], [2], False),
            (["2,1"], [1], [1], True),
        ]

    @pytest.mark.parametrize(
        "reshape, failing",
        [
            (
                lambda found: ((found[0][0],), found[0][1:]) + found[1:],
                {("1,1,1,1,1", "3,2"): [1, 1]},
            ),
            (
                lambda found: (found[0] + found[1],) + found[2:],
                {("1,1,1,1,1", "3,2"): [4], ("2,2,1", "5"): [4]},
            ),
            (
                lambda found: (
                    (found[0][0], found[1][1]),
                    (found[1][0], found[0][1]),
                ) + found[2:],
                {("1,1,1,1,1", "3,2"): [2, 2], ("2,2,1", "5"): [2, 2]},
            ),
        ],
        ids=["split", "merged", "swapped"],
    )
    def test_reshaped_block_fails(self, monkeypatch, reshape, failing):
        # negative control: the e-side blocks of core (1) at (n, e, m) =
        # (5, 2, 3), of sizes 2, 2, 1, have their first block split in two,
        # their first two blocks merged, or one member swapped between them;
        # GL and GU alike, so that only the match itself can fail
        real = blocks._side_blocks

        def reshaped(pair, at_root):
            sizes, numbers, gu_ok = real(pair, at_root)
            if (pair.e, pair.core) == (2, P((1,))):
                assert sizes == [2, 2, 1]
                return _numbered(reshape(_blocks_of(sizes, numbers)))
            return sizes, numbers, gu_ok

        monkeypatch.setattr(blocks, "_side_blocks", reshaped)
        report = _named(block_match_report(5, 2, 3))
        assert {
            tuple(members): sizes_e
            for _, _, members, sizes_e, _, ok in report
            if not ok
        } == failing

    def test_gu_partition_mismatch_fails(self, monkeypatch):
        # negative control: the GU keys of the e-side series of core (1)
        # merge its GL blocks into one
        pair = CuspidalPairGL(5, 2, 2, P((1,)))
        assert len(series_blocks(pair, 3)) > 1
        _collapse_gu_values(monkeypatch, [pair])
        report = block_match_report(5, 2, 3)
        assert [ok for *_, ok in report] == [core_e != P((1,)) for core_e, *_ in report]
        assert not all(ok for *_, ok in report)

    # negative controls for the m side: at (n, e, m) = (5, 2, 3) the level-3
    # series are reshaped while every level-2 series is left as it is, so
    # only the m-side check can fail
    M_SIDE_FAILING = {
        ("1,1,1,1,1", "3,2"): [3],
        ("2,2,1", "5"): [3],
        ("4,1",): [3],
        ("2,1,1,1",): [3],
    }

    @staticmethod
    def _failing_m_side(report):
        return {
            tuple(members): sizes_m
            for _, _, members, _, sizes_m, ok in _named(report)
            if not ok
        }

    def test_merged_m_side_blocks_fail(self, monkeypatch):
        # the first two blocks of each level-3 series merged, GL and GU alike
        real = blocks._side_blocks

        def merged(pair, at_root):
            sizes, numbers, gu_ok = real(pair, at_root)
            if pair.e == 3 and len(sizes) > 1:
                found = _blocks_of(sizes, numbers)
                return _numbered((found[0] + found[1],) + found[2:])
            return sizes, numbers, gu_ok

        monkeypatch.setattr(blocks, "_side_blocks", merged)
        report = block_match_report(5, 2, 3)
        assert self._failing_m_side(report) == self.M_SIDE_FAILING

    def test_m_side_gu_partition_mismatch_fails(self, monkeypatch):
        # the GU keys of the level-3 series with a = 1 merge its GL blocks
        pairs = [pair for pair in hc_pairs(5, 3) if pair.a == 1]
        assert all(len(series_blocks(pair, 2)) > 1 for pair in pairs)
        _collapse_gu_values(monkeypatch, pairs)
        report = block_match_report(5, 2, 3)
        assert self._failing_m_side(report).keys() == self.M_SIDE_FAILING.keys()
        verdicts = {tuple(members): ok for _, _, members, *_, ok in _named(report)}
        assert verdicts[("3,1,1",)] is True


class TestSideBlocks:
    # the one-pass side table that every block grouping reads, against
    # groupings built from the oracles' keys
    @staticmethod
    def _thm1_sides(monkeypatch, max_n):
        # every (pair, root) side that verify thm1 builds, in all 45 pairs
        # and both directions
        built = {}
        real = blocks._side_blocks

        def recorded(pair, at_root):
            built[pair, at_root] = None
            return real(pair, at_root)

        monkeypatch.setattr(blocks, "_side_blocks", recorded)
        run_suite("thm1", max_n=max_n)
        monkeypatch.setattr(blocks, "_side_blocks", real)
        return list(built)

    @staticmethod
    def _oracle_numbers(pair, r, shift=0):
        # each sorted multipartition's GL and GU block number, blocks
        # numbered by first member, from residue_key_oracle at level r and
        # root_key_oracle at ennola_e(r), the first GU value moved by shift
        # in (1/2 ennola_e(r))Z/Z; level-1 blocks are undefined, and
        # thm1 takes the whole series as one block there, as it must a
        # series with a = 0, whose one member has no Hecke parameters
        mps = sorted(multipartitions_of(pair.e, pair.a))
        if r == 1 or pair.a == 0:
            return mps, [0] * len(mps), [0] * len(mps)
        charges = e_quotient_charged(pair.core, pair.e).charges
        params = specialization(pair, GU)
        tau = [oracle_param(t) for t in params.tau_params]
        tau[0] = (tau[0][0] + Fraction(shift, 2 * ennola_e(r)), tau[0][1])
        sigma = [oracle_param(s) for s in params.sigma_params]

        def numbered(key):
            ids = {}
            return [ids.setdefault(key([p.parts for p in mp]), len(ids)) for mp in mps]

        gl = numbered(lambda parts: residue_key_oracle(parts, charges, pair.e, r))
        gu = numbered(lambda parts: root_key_oracle(parts, tau, sigma, ennola_e(r)))
        return mps, gl, gu

    @classmethod
    def _disagreements(cls, sides):
        # (sides, sides whose oracle GU blocks differ from the GL ones,
        # sides whose table disagrees with the oracle: its GL numbers, or a
        # GU verdict other than whether the oracle's GU and GL blocks agree)
        differ = wrong = 0
        for pair, r in sides:
            mps, gl, gu = cls._oracle_numbers(pair, r)
            sizes, numbers, gu_ok = blocks._side_blocks(pair, r)
            wrong += (
                sizes != [gl.count(i) for i in range(max(gl) + 1)]
                or list(numbers.items()) != list(zip(mps, gl))
                or gu_ok != (gu == gl)
            )
            differ += gu != gl
        return len(sides), differ, wrong

    def test_matches_the_oracle_groupings(self, monkeypatch):
        # 7,071 sides, 668 of them keyed (a > 0 at a root >= 2)
        sides = self._thm1_sides(monkeypatch, 10)
        assert self._disagreements(sides) == (7_071, 0, 0)

    def test_gu_verdict_follows_shifted_gu_keys(self, monkeypatch):
        # negative control: a GU key with its first component's value moved
        # by one changes the GU blocks of 303 sides, as the oracle moved
        # alike sees; the table, which checks the relabelling of every box
        # the series can hold, not only the keys it has, rejects those and
        # 34 more
        sides = self._thm1_sides(monkeypatch, 10)
        moved = set()
        for side in sides:
            _, gl, gu = self._oracle_numbers(*side, shift=1)
            if gu != gl:
                moved.add(side)
        real = blocks._root_values

        def shifted(params, at_root):
            d, omega, alphas = real(params, at_root)
            return d, omega, ((alphas[0] + 1) % d,) + alphas[1:]

        monkeypatch.setattr(blocks, "_root_values", shifted)
        rejected = {side for side in sides if not blocks._side_blocks(*side)[2]}
        assert (len(moved), len(rejected)) == (303, 337)
        assert moved <= rejected
        assert self._disagreements(sides) == (7_071, 0, 337)

    def test_one_block_tables_are_shared_and_never_mutated(self):
        # at root 1, or for a = 0, the table depends on (e, a) alone and is
        # built once for every series of that level and rank, so a reader
        # that wrote to it would change every later side of the same (e, a)
        pairs = [pair for n in range(1, 11) for e in range(1, 13) for pair in hc_pairs(n, e)]

        def stale():
            # the pairs whose one-block table is not a fresh build, in order
            found = []
            for pair in pairs:
                mps = multipartitions_of(pair.e, pair.a)
                fresh = ([len(mps)], dict.fromkeys(mps, 0), True)
                table = blocks._side_blocks(pair, 1)
                if table != fresh or list(table[1]) != list(fresh[1]):
                    found.append(pair)
            return found

        assert len(pairs) == 976 and stale() == []
        singles = [pair for pair in pairs if pair.a == 0]
        assert all(blocks._side_blocks(p, 1) is blocks._side_blocks(p, 2) for p in singles)
        run_suite("thm1", max_n=8)
        for pair in singles:
            for r in range(2, 13):
                if gcd(pair.e, r) == 1:
                    series_blocks(pair, r, GU)
                    series_blocks(pair, r)
        assert stale() == []


class TestSingletonSeries:
    # a series with a = 0 has one member, the empty multipartition, so its
    # side of the report is one block without keys on either variant
    def test_singleton_side_is_one_block(self):
        checked = 0
        for n in range(1, 11):
            for e in range(1, 13):
                for pair in hc_pairs(n, e):
                    if pair.a:
                        continue
                    only = (tuple(multipartitions_of(e, 0)),)
                    assert len(only[0]) == 1 and not any(only[0][0])
                    for r in range(2, 13):
                        if gcd(e, r) != 1:
                            continue
                        one = ([1], {only[0][0]: 0}, True)
                        assert blocks._side_blocks(pair, r) == one
                        assert series_blocks(pair, r) == only
                        assert series_blocks(pair, r, GU) == only
                        checked += 1
        assert checked == 5_437

    @staticmethod
    def _misplaced(core, level):
        # the series map with the image of one e-core, an a = 0 series of
        # that level, moved to a nonempty multipartition
        real = e_quotient_charged

        def image(p, e):
            if (p, e) == (core, level):
                return ChargedMultiPartition((P((1,)),) + (P(()),) * (e - 1), (0,) * e)
            return real(p, e)

        return image

    @pytest.mark.parametrize(
        "n, e, m, singletons",
        [(4, 3, 4, 3), (5, 2, 3, 1), (6, 3, 2, 3), (7, 4, 3, 3)],
    )
    def test_every_misplaced_core_fails_exactly_its_intersections(
        self, monkeypatch, n, e, m, singletons
    ):
        # each a = 0 series in turn, on both sides, fails its own intersections
        # and no other; (4, 3, 4) includes the 3-core 2,1,1 sent to (1);;
        assert all(ok for *_, ok in block_match_report(n, e, m))
        mutants = 0
        # side: the index of that level's core in a report tuple; its
        # block sizes are three places on
        for level, side in ((e, 0), (m, 1)):
            for pair in hc_pairs(n, level):
                if pair.a:
                    continue
                monkeypatch.setattr(
                    blocks, "e_quotient_charged", self._misplaced(pair.core, level)
                )
                report = block_match_report(n, e, m)
                hit = [row[side] == pair.core for row in report]
                assert any(hit)
                assert [ok for *_, ok in report] == [not h for h in hit]
                assert all(row[side + 3] == [] for row, h in zip(report, hit) if h)
                mutants += 1
        assert mutants == singletons

    def test_no_keys_for_singleton_series(self, monkeypatch):
        # thm1 computes block keys only for a (pair, root) with a > 0 and
        # root >= 2, and the level-m key data once for each
        calls = []
        reports = []
        real_values = blocks._level_values
        real_report = suites.block_match_report

        def counted(*args):
            calls.append(args)
            return real_values(*args)

        def recorded(n, e, m):
            reports.append((n, e, m))
            return real_report(n, e, m)

        monkeypatch.setattr(blocks, "_level_values", counted)
        monkeypatch.setattr(suites, "block_match_report", recorded)
        _, _, failures = run_suite("thm1", max_n=8)
        assert failures == []
        sides = [
            (pair, at_root)
            for n, e, m in reports
            for level, at_root in ((e, m), (m, e))
            for pair in hc_pairs(n, level)
        ]
        keyed = [(pair, r) for pair, r in sides if pair.a > 0 and r >= 2]
        assert len(calls) == len(keyed)
        assert sorted(calls) == sorted((p.core, p.e, r) for p, r in keyed)
        # most sides are singleton series at a root >= 2
        assert sum(pair.a == 0 and r >= 2 for pair, r in sides) > len(keyed)
