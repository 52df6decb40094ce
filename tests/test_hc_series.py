import json
from fractions import Fraction
from math import factorial

import pytest

from abacore.cli import main
from abacore.hc_series import (
    GL,
    GU,
    CuspidalPairGL,
    HeckeParam,
    hc_pairs,
    hc_partition,
    specialization,
    wreath_degree,
)
from abacore.partitions import (
    Partition,
    e_core,
    e_quotient_charged,
    hook_lengths,
    is_e_core,
    multipartitions_of,
    partitions_of,
)
from abacore.suites import run_suite
from oracles import (
    classical_case_mismatches,
    classical_cases,
    oracle_param,
    rim_hook_core,
    syt_by_recursion,
    wreath_dim,
)

P = Partition


def series_intersection(pair_e, pair_m):
    """All partitions lying in both series, in lexicographic order of their
    parts; may be empty."""
    if pair_e.n != pair_m.n:
        raise ValueError("pairs belong to different ranks")
    return tuple(
        p
        for p in sorted(partitions_of(pair_e.n), key=lambda q: q.parts)
        if e_core(p, pair_e.e) == pair_e.core and e_core(p, pair_m.e) == pair_m.core
    )


def pairs_as_set(pairs):
    return {(pr.a, pr.core.parts) for pr in pairs}


class TestPairs:
    def test_examples(self):
        assert pairs_as_set(hc_pairs(2, 2)) == {(1, ())}
        assert pairs_as_set(hc_pairs(3, 2)) == {(1, (1,)), (0, (2, 1))}
        assert pairs_as_set(hc_pairs(4, 3)) == {
            (1, (1,)),
            (0, (3, 1)),
            (0, (2, 1, 1)),
        }

    def test_sorted_lexicographically(self):
        for n, e in ((4, 3), (7, 2), (6, 4)):
            cores = [pr.core.parts for pr in hc_pairs(n, e)]
            assert cores == sorted(cores)

    def test_cores_match_rim_hook_oracle(self):
        for n in range(1, 13):
            for e in range(1, 8):
                pairs = hc_pairs(n, e)
                cores = {rim_hook_core(p.parts, e) for p in partitions_of(n)}
                assert [pr.core.parts for pr in pairs] == sorted(cores)
                assert all(pr.a == (n - pr.core.size) // e for pr in pairs)

    def test_validation(self):
        with pytest.raises(ValueError):
            CuspidalPairGL(3, 2, 1, P((2,)))  # (2) is not a 2-core
        with pytest.raises(ValueError):
            CuspidalPairGL(3, 2, 0, P((1,)))  # sizes do not add up

    def test_singleton_flag(self):
        flags = {pr.core.parts: pr.a == 0 for pr in hc_pairs(3, 2)}
        assert flags == {(1,): False, (2, 1): True}


class TestSeriesMap:
    def test_examples(self):
        assert e_core(P((3,)), 3) == P(())
        image = e_quotient_charged(P((3,)), 3)
        assert [q.parts for q in image.components] == [(), (), (1,)]
        assert image.charges == (1, 1, 1)

        assert e_core(P((2, 1)), 2) == P((2, 1))
        image2 = e_quotient_charged(P((2, 1)), 2)
        assert all(q.size == 0 for q in image2.components)

    def test_core_members_map_to_empty(self):
        for n in range(1, 9):
            for p in partitions_of(n):
                for e in range(1, 7):
                    if is_e_core(p, e):
                        image = e_quotient_charged(p, e)
                        assert all(q.size == 0 for q in image.components)

    def test_partition_property(self):
        for n in range(1, 15):
            for e in range(1, 15):
                blocks = hc_partition(n, e)
                seen = [p for members in blocks.values() for p in members]
                assert sorted(q.parts for q in seen) == sorted(
                    q.parts for q in partitions_of(n)
                )
                for pair, members in blocks.items():
                    count = len(multipartitions_of(pair.e, pair.a))
                    assert len(members) == count

    def test_members_are_listed_in_sorted_order(self):
        for n in range(1, 11):
            for e in range(1, 13):
                for members in hc_partition(n, e).values():
                    assert list(members) == sorted(members)

    def test_partition_examples(self):
        two_two = {
            pr.core.parts: [q.parts for q in members]
            for pr, members in hc_partition(2, 2).items()
        }
        assert two_two == {(): [(1, 1), (2,)]}
        three_two = {
            pr.core.parts: sorted(q.parts for q in members)
            for pr, members in hc_partition(3, 2).items()
        }
        assert three_two == {(1,): [(1, 1, 1), (3,)], (2, 1): [(2, 1)]}
        three_three = {
            pr.core.parts: sorted(q.parts for q in members)
            for pr, members in hc_partition(3, 3).items()
        }
        assert three_three == {(): [(1, 1, 1), (2, 1), (3,)]}

    def test_chi_bijection_property(self):
        for n in range(1, 11):
            for e in range(1, 7):
                for pair, members in hc_partition(n, e).items():
                    images = sorted(
                        tuple(q.parts for q in e_quotient_charged(p, e).components)
                        for p in members
                    )
                    expected = sorted(
                        tuple(q.parts for q in mp)
                        for mp in multipartitions_of(pair.e, pair.a)
                    )
                    assert images == expected

    def test_cuspidal_singleton_bridge(self):
        for n in range(1, 11):
            for p in partitions_of(n):
                for e in range(1, 11):
                    a = (n - e_core(p, e).size) // e
                    assert is_e_core(p, e) == (a == 0)

    @pytest.mark.parametrize("n, e", [(3, 2), (9, 3), (12, 5)])
    def test_series_builds_no_pair_per_partition(self, capsys, monkeypatch, n, e):
        # once hc_pairs is warm, the series command validates no new pair
        # (each validation reruns is_e_core on a core e_core just produced)
        hc_pairs(n, e)
        built = []
        real = CuspidalPairGL.__new__

        def counting(cls, n, e, a, core):
            built.append(core)
            return real(cls, n, e, a, core)

        monkeypatch.setattr(CuspidalPairGL, "__new__", counting)
        assert main(["series", "--n", str(n), "--e", str(e)]) == 0
        series = json.loads(capsys.readouterr().out)["series"]
        assert built == []
        assert sum(len(entry["members"]) for entry in series) == len(partitions_of(n))
        core = e_core(P((1,) * n), e)
        CuspidalPairGL(n, e, (n - core.size) // e, core)
        assert len(built) == 1  # the counter sees a construction

    def test_intersection_examples(self):
        pe = CuspidalPairGL(3, 2, 1, P((1,)))
        pm = CuspidalPairGL(3, 3, 1, P(()))
        assert [q.parts for q in series_intersection(pe, pm)] == [(1, 1, 1), (3,)]
        pe2 = CuspidalPairGL(3, 2, 0, P((2, 1)))
        assert [q.parts for q in series_intersection(pe2, pm)] == [(2, 1)]
        pm3 = CuspidalPairGL(2, 3, 0, P((2,)))
        pe3 = CuspidalPairGL(2, 2, 1, P(()))
        assert [q.parts for q in series_intersection(pe3, pm3)] == [(2,)]

    def test_intersection_rank_mismatch(self):
        with pytest.raises(ValueError):
            series_intersection(
                CuspidalPairGL(2, 2, 1, P(())), CuspidalPairGL(3, 3, 1, P(()))
            )


class TestWreath:
    def test_dim_examples(self):
        assert wreath_dim((P(()), P((1,)), P(()))) == 1
        assert wreath_dim((P((1,)), P((1,)))) == 2
        assert wreath_dim((P((2,)), P((1,)))) == 3

    def test_dim_matches_multinomial_times_tableau_counts(self):
        for e in range(1, 5):
            for a in range(7):
                for mp in multipartitions_of(e, a):
                    expected = factorial(a)
                    for p in mp:
                        expected //= factorial(p.size)
                    for p in mp:
                        expected *= syt_by_recursion(p.parts)
                    assert wreath_dim(mp) == expected

    def test_sum_of_squares_is_group_order(self):
        for e in (1, 2, 3):
            for a in (0, 1, 2, 3, 4):
                total = sum(
                    wreath_dim(mp) ** 2 for mp in multipartitions_of(e, a)
                )
                assert total == e**a * factorial(a)

    def test_quotient_hooks_are_the_e_divisible_hooks(self):
        # the identity wreath_degree rests on (James-Kerber 2.7.40): the hooks
        # of p's e-quotient are p's hooks divisible by e, each divided by e,
        # so they give the quotient's size and wreath degree.  Control: the
        # degree at e + 1 must miss the degree at e
        cases = mismatches = control = 0
        for n in range(1, 13):
            for p in partitions_of(n):
                for e in range(1, n + 1):
                    image = e_quotient_charged(p, e).components
                    size, dim = sum(q.size for q in image), wreath_dim(image)
                    divisible = sum(1 for h in hook_lengths(p) if h % e == 0)
                    cases += 1
                    mismatches += (divisible, wreath_degree(p, e)) != (size, dim)
                    control += wreath_degree(p, e + 1) != dim
        assert (cases, mismatches, control) == (2646, 0, 785)

    @pytest.mark.parametrize("e", [0, -1])
    def test_degree_rejects_bad_level(self, e):
        with pytest.raises(ValueError, match="e must be >= 1"):
            wreath_degree(P((1,)), e)


def degmod_cases():
    """The default degmod run's cases, keyed by (partition name, e)."""
    cases = {}
    run_suite("degmod", lambda case: cases.setdefault((case["partition"], case["e"]), case))
    return cases


class TestDegreeRemainders:
    # criterion 6 as the degmod suite judges it: the degree of p reduces
    # modulo the e-th cyclotomic to a signed wreath_degree(p, e)
    def test_examples(self):
        cases = degmod_cases()
        assert cases["2", 2]["sign"] == 1
        assert cases["1,1", 2]["sign"] == -1
        assert cases["2,1", 3]["sign"] == -1

    def test_toral_series_always_work(self):
        # whenever the core has at most one box, the remainder is a constant
        # of the predicted size
        cases = degmod_cases()
        toral = 0
        for n in range(1, 11):
            for p in partitions_of(n):
                for e in range(1, n + 1):
                    if e_core(p, e).size <= 1:
                        toral += 1
                        case = cases[str(p), e]
                        assert case["pass"] and case["sign"] in (1, -1)
        assert (toral, len(cases)) == (452, 1106)

    def test_known_failures_beyond_toral_series(self):
        # the constant-remainder property genuinely fails once the cuspidal
        # core grows: these two are the smallest witnesses
        cases = degmod_cases()
        assert cases["2,1", 2] == {  # remainder 0, series core (2,1)
            "partition": "2,1", "e": 2, "pass": False,
            "error": "remainder 0 does not match wreath degree 1 for (2, 1) at e=2",
        }
        assert cases["4,1", 3] == {  # remainder x, series core (1,1)
            "partition": "4,1", "e": 3, "pass": False,
            "error": "nonconstant remainder x for (4, 1) at e=3",
        }


class TestSpecialization:
    def test_gl_examples(self):
        sp = specialization(CuspidalPairGL(2, 2, 1, P(())), GL)
        assert sp.tau_params == (HeckeParam(1, 2), HeckeParam(1, 3))
        assert sp.sigma_params == (HeckeParam(1, 0), HeckeParam(-1, 2))

        sp2 = specialization(CuspidalPairGL(3, 2, 1, P((1,))), GL)
        assert [t.exponent for t in sp2.tau_params] == [2, 5]

        sp1 = specialization(CuspidalPairGL(1, 1, 1, P(())), GL)
        assert sp1.tau_params == (HeckeParam(1, 1),)
        assert sp1.sigma_params == (HeckeParam(1, 0), HeckeParam(-1, 1))

    def test_coxeter_case(self):
        # empty core, a = 1, n = e: the parameters are x^e, ..., x^(2e - 1)
        # and (1, -x^e); scaled by x^-e, the tau parameters are 1, x, ...,
        # x^(e - 1), the Frobenius eigenvalues on the cohomology of the
        # Coxeter variety (Lusztig, Invent. Math. 1976)
        for e in range(1, 13):
            sp = specialization(CuspidalPairGL(e, e, 1, P(())), GL)
            assert sp.tau_params == tuple(HeckeParam(1, k) for k in range(e, 2 * e))
            assert sp.sigma_params == (HeckeParam(1, 0), HeckeParam(-1, e))

    @pytest.mark.parametrize(
        "case, pairs",
        [("GU ordinary series", 33), ("GL principal series", 5), ("GU Phi_2 principal series", 5)],
    )
    def test_classical_case(self, case, pairs):
        # the known Hecke parameters of Lusztig's GU series and of the GL
        # and GU principal series, beside the Coxeter case above
        assert sum(c == case for c, *_ in classical_cases()) == pairs
        assert [pair for c, pair in classical_case_mismatches(specialization) if c == case] == []

    def test_flipped_gu_tau_parity_fails_the_gu_case(self):
        # negative control: GU's tau_0 read with the wrong parity of its
        # exponent breaks every GU ordinary pair and nothing else
        def flipped(pair, variant):
            sp = specialization(pair, variant)
            if variant != GU:
                return sp
            sign, exponent = sp.tau_params[0]
            tau0 = HeckeParam(-sign, exponent)
            return sp._replace(tau_params=(tau0, *sp.tau_params[1:]))

        found = classical_case_mismatches(flipped)
        assert [case for case, _ in found] == ["GU ordinary series"] * 33

    def test_gu_is_sign_twist_of_gl(self):
        # replacing x by -x adds exponent/2 to every argument
        for n in range(1, 9):
            for e in range(1, n + 1):
                for pair in hc_pairs(n, e):
                    if pair.a == 0:
                        continue
                    gl = specialization(pair, GL)
                    gu = specialization(pair, GU)
                    for a, b in zip(
                        gl.tau_params + gl.sigma_params,
                        gu.tau_params + gu.sigma_params,
                        strict=True,
                    ):
                        (arg_a, exp_a), (arg_b, exp_b) = oracle_param(a), oracle_param(b)
                        assert exp_b == exp_a
                        assert arg_b == (arg_a + Fraction(exp_a, 2)) % 1

    def test_arguments_match_the_fraction_formula(self):
        # each parameter is an integer sign 1 or -1 times an integer power
        # of x, and the argument the sign stands for is the exact parity of
        # the exponent, as the Fraction formula (exponent / 2) mod 1 gives it
        half = Fraction(1, 2)
        pairs = [
            pair
            for n in range(1, 15)
            for e in range(1, 13)
            for pair in hc_pairs(n, e)
            if pair.a > 0
        ]
        gu_tau_args, gu_sigma_args = set(), set()
        for pair in pairs:
            for variant in (GL, GU):
                sp = specialization(pair, variant)
                for param in sp.tau_params + sp.sigma_params:
                    assert type(param.sign) is int and param.sign in (1, -1)
                    assert type(param.exponent) is int
                sigma0, (sigma_arg, sigma_exp) = map(oracle_param, sp.sigma_params)
                tau = [oracle_param(t) for t in sp.tau_params]
                assert sigma0 == (0, 0)
                assert sigma_exp == pair.e
                if variant == GL:
                    assert all(arg == 0 for arg, _ in tau)
                    assert sigma_arg == half
                    continue
                for arg, exponent in tau:
                    assert arg == (exponent * half) % 1
                    gu_tau_args.add(arg)
                assert sigma_arg == ((pair.e + 1) * half) % 1
                gu_sigma_args.add(sigma_arg)
        assert len(pairs) == 325
        # both parities occur on both kinds of argument
        assert gu_tau_args == gu_sigma_args == {0, half}

    def test_rejects_singleton(self):
        with pytest.raises(ValueError):
            specialization(CuspidalPairGL(3, 2, 0, P((2, 1))), GL)
        with pytest.raises(ValueError):
            specialization(CuspidalPairGL(2, 2, 1, P(())), "other")
