"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  All checks are exact; no tolerances anywhere.
"""

from abacore.hc_series import specialization
from abacore.suites import run_suite
from abacore.partitions import partitions_of
from abacore.polynomials import IntPolynomial, cyclotomic, ennola_e, generic_degree
from oracles import (
    PARTITION_COUNTS,
    classical_case_mismatches,
    classical_cases,
    ennola_substitute,
    syt_by_recursion,
)

# coprime level pairs 1 <= e < m <= 12, the default thm1/thm2 sweep
COPRIME_PAIRS_TO_12 = 45


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {verdict}{suffix}")
    assert ok, f"criterion {number} [{name}] failed{suffix}"


def _suite_criterion(number: int, name: str, suite: str, expected_cases: int):
    """Run a verify suite at its default size, as `abacore verify <suite>`
    does, and report it as one criterion that also pins its case count."""
    parameters, cases, failures = run_suite(suite)
    _report(
        number,
        name,
        cases == expected_cases and not failures,
        f"{parameters}: {cases} of {expected_cases} cases checked,"
        f" {len(failures)} failures, first: {failures[:3]}",
    )


def test_criterion_1_intersections_are_single_blocks():
    _suite_criterion(
        1,
        "series intersections are single blocks, unitary variant agrees",
        "thm1",
        COPRIME_PAIRS_TO_12 * sum(PARTITION_COUNTS[1:13]),
    )


def test_criterion_2_level_rank_diagram_commutes():
    _suite_criterion(
        2,
        "both routes of the level-rank diagram agree",
        "thm2",
        COPRIME_PAIRS_TO_12 * sum(PARTITION_COUNTS[1:13]),
    )


def test_criterion_3_content_series_identities():
    # sizes 0..10, charges -4..4, levels 1..5
    _suite_criterion(
        3,
        "content generating identities hold coefficientwise",
        "content-lemma",
        sum(PARTITION_COUNTS[:11]) * 9 * 5,
    )


def test_criterion_4_core_and_key_equivalence():
    # pairs of partitions of 1..10 sharing an e-core, over the coprime
    # (e, m) in 1..6; recorded from the reference run
    _suite_criterion(4, "same m-core iff same residue key", "content-prop", 20073)


def test_criterion_5_cuspidal_multiplicities():
    # sizes 0..10, levels 1..10
    _suite_criterion(
        5,
        "cuspidality criterion and multiplicity formula",
        "cuspidal",
        sum(PARTITION_COUNTS[:11]) * 10,
    )


def test_criterion_6_degree_remainders():
    # As stated: for every partition of size at most 10 and every e up to the
    # size, the degree polynomial reduces modulo the e-th cyclotomic to a
    # constant of absolute value wreath_dim(e-quotient), so that every case
    # has a sign.  This fails beyond the series attached to maximal tori;
    # the smallest witnesses are (2,1) at e=2 (remainder 0) and (4,1) at
    # e=3 (remainder x).
    _, cases, failures = run_suite("degmod")
    expected_cases = sum(n * PARTITION_COUNTS[n] for n in range(1, 11))
    _report(
        6,
        "degree remainders are signed wreath dimensions",
        cases == expected_cases and not failures,
        f"{len(failures)} of the {cases} (partition, e) cases fail;"
        f" smallest: {[(f['partition'], f['e']) for f in failures[:3]]}",
    )


def test_degmod_failure_count():
    # Criterion 6 reads its failures through run_suite alone; pin the
    # known counts so that a run_suite dropping failures cannot make it pass.
    _, cases, failures = run_suite("degmod")
    assert (cases, len(failures)) == (1106, 547)


def test_criterion_7_round_trips():
    _suite_criterion(7, "seeded bijection round trips", "roundtrip", 10000)


def test_criterion_8_sign_twists_and_tableaux():
    problems = []
    for e in range(1, 25):
        if ennola_e(ennola_e(e)) != e:
            problems.append(("involution", e))
        twisted = IntPolynomial(*ennola_substitute(cyclotomic(e).coeffs))
        partner = cyclotomic(ennola_e(e))
        expected = IntPolynomial(*(-c for c in partner.coeffs)) if e in (1, 2) else partner
        if twisted != expected:
            problems.append(("pairing", e))
    for n in range(9):
        for p in partitions_of(n):
            if generic_degree(p)(1) != syt_by_recursion(p.parts):
                problems.append(("tableaux", p.parts))
    _report(
        8,
        "sign-twist pairing and tableau counts",
        not problems,
        f"problems: {problems[:5]}" if problems else "e <= 24, sizes <= 8",
    )


def test_criterion_9_classical_parameters():
    cases = len(list(classical_cases()))
    mismatches = classical_case_mismatches(specialization)
    _report(
        9,
        "the predicted parameters reproduce the classical cases",
        cases == 43 and not mismatches,
        f"{cases} pairs, {len(mismatches)} mismatches, first: {mismatches[:3]}",
    )
