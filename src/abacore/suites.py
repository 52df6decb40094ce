"""The verify suites: the paper's claims, and the lemmas beneath them, each
checked on every small case.

    thm1           a Phi_e-series meets a Phi_m-series in one block on each side
    thm2           Uglov's level-rank bijection commutes with the affine corrections
    content-lemma  the content generating identity, at each level 1..5
    content-prop   members of an e-series share an m-core iff they share a block
    cuspidal       Phi_e-cuspidal iff e-core; a degree's Phi_e-valuation is
                   n // e minus the number of its hooks divisible by e
    degmod         degree remainders mod Phi_e are signed wreath dimensions
                   (false beyond maximal tori, so the suite exits 1)
    roundtrip      seeded round trips of the bijections the claims rest on

Each SUITES row declares a suite's case generator and, for each flag it
reads, the default and the bound; run_suite is the one check of both.
"""

from __future__ import annotations

import random
from math import gcd

from .blocks import _side_blocks, block_match_report, check_content_lemma
from .hc_series import hc_partition, wreath_degree
from .levelrank import _routes_agree, qr_em, uglov
from .partitions import (
    ChargedMultiPartition,
    _abaci,
    e_core,
    e_quotient_charged,
    from_beta,
    hook_lengths,
    is_e_core,
    partitions_of,
    regroup,
    to_beta,
)
from .polynomials import generic_degree, gl_order, mod_cyclotomic, phi_multiplicity

LEVEL_SWEEP_MAX = 12
LEVEL_MAX = 40  # --e/--m of series, blocks, verify; series --n 40 --e 40: about 4.4 s


def _check_bounds(bound: int, *named: tuple[str, int]) -> None:
    """Refuse any (name, value) pair with value above bound."""
    for name, value in named:
        if value > bound:
            raise ValueError(f"{name} {value} is too large; at most {bound} is supported")


def _coprime_pairs(e, m) -> list[tuple[int, int]]:
    """The (e, m) pairs to sweep: a single pair if given, else all coprime
    pairs with 1 <= e < m <= 12."""
    if (e is None) != (m is None):
        raise ValueError("give both --e and --m, or neither")
    if e is not None:
        if e < 1 or m < 1:
            raise ValueError("levels must be >= 1")
        if gcd(e, m) != 1:
            raise ValueError(f"levels {e}, {m} must be coprime")
        if e == m:
            raise ValueError("levels 1, 1 compare a level with itself; give e != m")
        return [(e, m)]
    return [
        (e, m)
        for m in range(2, LEVEL_SWEEP_MAX + 1)
        for e in range(1, m)
        if gcd(e, m) == 1
    ]


# each generator yields (cases checked, case) with case["pass"]

def _thm1_cases(max_n, e, m):
    pairs = _coprime_pairs(e, m)
    # every member and every core is a partition of at most max_n: each named once
    names = {p: str(p) for k in range(max_n + 1) for p in partitions_of(k)}
    for n in range(1, max_n + 1):
        for e, m in pairs:
            for core_e, core_m, members, sizes_e, sizes_m, ok in block_match_report(n, e, m):
                yield len(members), {
                    "n": n, "e": e, "m": m,
                    "coreE": names[core_e], "coreM": names[core_m],
                    "members": [names[p] for p in members],
                    "blockE_sizes": sizes_e, "blockM_sizes": sizes_m, "pass": ok,
                }


def _thm2_cases(max_n, e, m):
    pairs = _coprime_pairs(e, m)
    levels = {level for pair in pairs for level in pair}
    for n in range(1, max_n + 1):
        members = partitions_of(n)
        # verdicts[i][k]: member i at pair k, from its charge-0 split at each level
        verdicts = []
        for p in members:
            abacus = _abaci((p,), (0,))
            split = {level: (0, regroup(abacus, level)) for level in levels}
            verdicts.append([_routes_agree(e, m, split[e], split[m]) for e, m in pairs])
        names = [str(p) for p in members]
        for k, (e, m) in enumerate(pairs):
            for name, row in zip(names, verdicts):
                yield 1, {"n": n, "e": e, "m": m, "partition": name, "pass": row[k]}


def _content_lemma_cases(max_n):
    for n in range(max_n + 1):
        for p in partitions_of(n):
            for s in range(-4, 5):
                for e in range(1, 6):
                    # below -window both sides of the identity are 0; the check
                    # compares every exponent, so the window is reported, not walked
                    w = n + abs(s) + e + 5
                    ok = check_content_lemma(p, s, e)
                    yield 1, {
                        "partition": str(p), "s": s, "e": e, "window": w, "pass": ok
                    }


def _content_prop_cases(max_n):
    """Member pairs of each e-series at each coprime m, keyed by side-table
    number: series listed by largest member, largest first, members named
    and mapped once."""
    for n in range(1, max_n + 1):
        for e in range(1, 7):
            series = sorted(hc_partition(n, e).items(), key=lambda s: max(s[1]), reverse=True)
            classes = [
                (pair, [(p, str(p), e_quotient_charged(p, e).components) for p in ms])
                for pair, ms in series if len(ms) > 1
            ]
            for m in (m for m in range(1, 7) if gcd(e, m) == 1):
                for pair, members in classes:
                    numbers = _side_blocks(pair, m)[1]
                    facts = [(p, name, e_core(p, m), numbers[mp]) for p, name, mp in members]
                    for i, (p, name_p, core_p, key_p) in enumerate(facts):
                        for r, name_r, core_r, key_r in facts[i + 1:]:
                            case = {"n": n, "e": e, "m": m, "p": name_p, "r": name_r}
                            same_core, same_key = core_p == core_r, key_p == key_r
                            case["pass"] = same_core == same_key
                            if case["pass"]:
                                case["same"] = same_core
                            else:
                                case["error"] = (
                                    f"core comparison {same_core} but key comparison"
                                    f" {same_key} for {p.parts}, {r.parts}"
                                    f" at (e, m) = ({e}, {m})"
                                )
                            yield 1, case


def _cuspidal_cases(max_n):
    for n in range(max_n + 1):
        # the Phi_e-part of |GL_n|, which is 0 for the trivial group GL_0
        whole = {e: n and phi_multiplicity(gl_order(n), e) for e in range(1, 11)}
        for p in partitions_of(n):
            hooks = hook_lengths(p)
            for e in range(1, 11):
                # Phi_e-cuspidal: the degree carries the order's whole Phi_e-part
                valuation = phi_multiplicity(generic_degree(p), e)
                cuspidal = valuation == whole[e]
                expected = n // e - sum(1 for h in hooks if h % e == 0)
                ok = cuspidal == is_e_core(p, e) and valuation == expected
                yield 1, {"partition": str(p), "e": e, "pass": ok}


def _degmod_cases(max_n):
    for n in range(1, max_n + 1):
        for p in partitions_of(n):
            for e in range(1, n + 1):
                rem = mod_cyclotomic(generic_degree(p), e)
                c = rem(0)
                case = {"partition": str(p), "e": e}
                if rem.degree > 0:
                    error = f"nonconstant remainder {rem}"
                elif abs(c) != (expected := wreath_degree(p, e)):
                    error = f"remainder {c} does not match wreath degree {expected}"
                else:
                    error = None
                    case["sign"] = 1 if c > 0 else -1
                case["pass"] = error is None
                if error:
                    case["error"] = f"{error} for {p.parts} at e={e}"
                yield 1, case


def _roundtrip_cases(seed, trials):
    rng = random.Random(seed)
    for trial in range(trials):
        problems = []

        p = rng.choice(partitions_of(rng.randint(0, 10)))
        s = rng.randint(-5, 5)
        cp = ChargedMultiPartition((p,), (s,))
        beta = to_beta(cp)
        if from_beta(beta) != cp or beta.charge != s:
            problems.append("beta round trip")

        e = rng.randint(1, 6)
        cmp_e = uglov(cp, e)
        if uglov(cmp_e, 1) != cp or cmp_e.total_charge != s:
            problems.append("charged split round trip")

        level = rng.randint(1, 4)
        remaining = 10
        comps, charges = [], []
        for _ in range(level):
            size = rng.randint(0, remaining)
            remaining -= size
            comps.append(rng.choice(partitions_of(size)))
            charges.append(rng.randint(-5, 5))
        cmp0 = ChargedMultiPartition(tuple(comps), tuple(charges))
        m = rng.randint(1, 6)
        image = uglov(cmp0, m)
        if image.total_charge != cmp0.total_charge:
            problems.append("charge conservation")
        if uglov(image, level) != cmp0:
            problems.append("level-rank round trip")

        x = rng.randint(-50, 50)
        e2 = rng.randint(1, 8)
        m2 = rng.randint(1, 8)
        y = rng.randint(0, e2 - 1)
        q, r = qr_em(x, y, e2, m2)
        if qr_em(q, r, m2, e2) != (x, y) or e2 * x + m2 * y != m2 * q + e2 * r:
            problems.append("index bijection")

        case = {"trial": trial, "pass": not problems}
        if problems:
            case["problems"] = problems
        yield 1, case


# suite name -> (case generator, {flag the suite reads: (default, bound)});
# beside each row: CPU time of `verify <suite> --stream` at its bounds, 2-vCPU VM
SUITES = {
    "thm1": (_thm1_cases, {"max_n": (12, 16),  # 0.81 s
                           "e": (None, LEVEL_MAX), "m": (None, LEVEL_MAX)}),
    "thm2": (_thm2_cases, {"max_n": (12, 16),  # 0.60 s
                           "e": (None, LEVEL_MAX), "m": (None, LEVEL_MAX)}),
    "content-lemma": (_content_lemma_cases, {"max_n": (10, 16)}),  # 0.99 s
    "content-prop": (_content_prop_cases, {"max_n": (10, 16)}),  # 2.10 s
    "cuspidal": (_cuspidal_cases, {"max_n": (10, 16)}),  # 0.28 s
    "degmod": (_degmod_cases, {"max_n": (10, 16)}),  # 0.31 s
    "roundtrip": (_roundtrip_cases, {"seed": (123456789, None),  # unbounded
                                     "trials": (10000, 100_000)}),  # 6.2 s
}


def run_suite(suite: str, emit=lambda case: None, **given):
    """Run one verify suite with the flags `given` (the rest at their
    defaults), passing each case to `emit`.  Returns (parameters,
    cases_checked, failures); raises ValueError for a flag the suite does
    not read, for a value above its bound and for a run that checks nothing."""
    cases_of, flags = SUITES[suite]
    values = {flag: default for flag, (default, _) in flags.items()}
    for flag, value in given.items():
        option = "--" + flag.replace("_", "-")
        if flag not in flags:
            raise ValueError(f"verify {suite} does not take {option}")
        if flags[flag][1] is not None:
            _check_bounds(flags[flag][1], (option, value))
        values[flag] = value
    cases = 0
    failures = []
    for checked, case in cases_of(**values):
        cases += checked
        emit(case)
        if not case["pass"]:
            failures.append(case)
    if cases == 0:
        raise ValueError(f"no cases to check for verify {suite} with these parameters")
    parameters = {"suite": suite}
    parameters.update((k, v) for k, v in values.items() if v is not None)
    return parameters, cases, failures
