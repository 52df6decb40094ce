"""Command-line front end.

Subcommands:

    core      print the e-core and charged e-quotient of a partition
    uglov     apply the level-rank bijection to a charged multipartition
    series    print the partition of GL_n characters into series
    blocks    print the block partition of every series of GL_n at a level
    verify    batch verification suites; exit 0 iff all checks pass

Every command prints a single JSON document (one object per line with
--stream); identical invocations produce byte-identical output.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from math import gcd

from .blocks import (
    EquivalenceViolation,
    block_match_report,
    block_partition,
    check_content_lemma,
    check_core_key_equivalence,
    root_key_partition,
)
from .hc_series import (
    GU,
    DegreeSignError,
    degree_sign,
    hc_pairs,
    hc_series_of,
    series_json,
    specialization,
)
from .levelrank import (
    check_core_matched_diagram,
    qr_em,
    qr_em_inv,
    uglov,
)
from .partitions import (
    ChargedMultiPartition,
    ChargedPartition,
    Partition,
    e_core,
    from_beta,
    hook_lengths,
    is_e_core,
    join_beta,
    join_charged,
    parse_charges,
    parse_multipartition,
    parse_partition,
    partitions_of,
    render_multipartition,
    render_partition,
    split_beta,
    split_charged,
    to_beta,
)
from .polynomials import ennola_e, generic_degree, phi_multiplicity, singular_check

DEFAULT_SEED = 123456789
LEVEL_SWEEP_MAX = 12


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _coprime_pairs(args) -> list[tuple[int, int]]:
    """The (e, m) pairs to sweep: a single pair if given, else all coprime
    pairs with 1 <= e < m <= 12."""
    if (args.e is None) != (args.m is None):
        raise ValueError("give both --e and --m, or neither")
    if args.e is not None:
        if args.e < 1 or args.m < 1:
            raise ValueError("levels must be >= 1")
        if gcd(args.e, args.m) != 1:
            raise ValueError(f"levels {args.e}, {args.m} must be coprime")
        return [(args.e, args.m)]
    return [
        (e, m)
        for m in range(2, LEVEL_SWEEP_MAX + 1)
        for e in range(1, m)
        if gcd(e, m) == 1
    ]


# ---------------------------------------------------------------------------
# verify runners; each returns (cases_checked, failures)

def _run_thm1(args, emit):
    cases = 0
    failures = []
    for n in range(1, args.max_n + 1):
        for e, m in _coprime_pairs(args):
            report = block_match_report(n, e, m)
            cases += len(partitions_of(n))
            for entry in report["intersections"]:
                case = {"n": n, "e": e, "m": m, **entry}
                emit(case)
                if not entry["pass"]:
                    failures.append(case)
    return cases, failures


def _run_thm2(args, emit):
    cases = 0
    failures = []
    for n in range(1, args.max_n + 1):
        for e, m in _coprime_pairs(args):
            for p in partitions_of(n):
                ok = check_core_matched_diagram(p, e, m)
                cases += 1
                case = {"n": n, "e": e, "m": m, "partition": str(p), "pass": ok}
                emit(case)
                if not ok:
                    failures.append(case)
    return cases, failures


def _run_content_lemma(args, emit):
    cases = 0
    failures = []
    for n in range(args.max_n + 1):
        for p in partitions_of(n):
            for s in range(-4, 5):
                for e in range(1, 6):
                    window = args.window or (n + abs(s) + e + 5)
                    ok = check_content_lemma(p, s, e, window)
                    cases += 1
                    case = {
                        "partition": str(p),
                        "s": s,
                        "e": e,
                        "window": window,
                        "pass": ok,
                    }
                    emit(case)
                    if not ok:
                        failures.append(case)
    return cases, failures


def _run_content_prop(args, emit):
    cases = 0
    failures = []
    level_pairs = [
        (e, m)
        for e in range(1, 7)
        for m in range(1, 7)
        if gcd(e, m) == 1
    ]
    for n in range(1, args.max_n + 1):
        for e, m in level_pairs:
            by_core: dict[tuple[int, ...], list[Partition]] = {}
            for p in partitions_of(n):
                by_core.setdefault(e_core(p, e).parts, []).append(p)
            for members in by_core.values():
                members = sorted(members, key=lambda q: q.parts)
                for i in range(len(members)):
                    for j in range(i + 1, len(members)):
                        cases += 1
                        case = {
                            "n": n,
                            "e": e,
                            "m": m,
                            "p": str(members[i]),
                            "r": str(members[j]),
                        }
                        try:
                            case["same"] = check_core_key_equivalence(
                                members[i], members[j], e, m
                            )
                            case["pass"] = True
                        except EquivalenceViolation as exc:
                            case["pass"] = False
                            case["error"] = str(exc)
                            failures.append(case)
                        emit(case)
    return cases, failures


def _run_cuspidal(args, emit):
    cases = 0
    failures = []
    for n in range(args.max_n + 1):
        for p in partitions_of(n):
            hooks = hook_lengths(p)
            for e in range(1, 11):
                cases += 1
                ok = singular_check(p, e) == is_e_core(p, e)
                if n >= 1:
                    expected = n // e - sum(1 for h in hooks if h % e == 0)
                    ok = ok and phi_multiplicity(generic_degree(p), e) == expected
                case = {"partition": str(p), "e": e, "pass": ok}
                emit(case)
                if not ok:
                    failures.append(case)
    return cases, failures


def _run_degmod(args, emit):
    cases = 0
    failures = []
    for n in range(1, args.max_n + 1):
        for p in partitions_of(n):
            for e in range(1, n + 1):
                cases += 1
                case = {"partition": str(p), "e": e}
                try:
                    case["sign"] = degree_sign(p, e)
                    case["pass"] = True
                except DegreeSignError as exc:
                    case["pass"] = False
                    case["error"] = str(exc)
                    failures.append(case)
                emit(case)
    return cases, failures


def _random_partition(rng: random.Random, max_size: int) -> Partition:
    return rng.choice(partitions_of(rng.randint(0, max_size)))


def _run_roundtrip(args, emit):
    rng = random.Random(args.seed)
    cases = 0
    failures = []
    for trial in range(args.trials):
        cases += 1
        problems = []

        p = _random_partition(rng, 10)
        s = rng.randint(-5, 5)
        cp = ChargedPartition(p, s)
        beta = to_beta(cp)
        if from_beta(beta) != cp or beta.charge != s:
            problems.append("beta round trip")

        e = rng.randint(1, 6)
        if join_beta(split_beta(beta, e)) != beta:
            problems.append("split/join")
        cmp_e = split_charged(cp, e)
        if join_charged(cmp_e) != cp or cmp_e.total_charge != s:
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
        if qr_em_inv(q, r, e2, m2) != (x, y) or e2 * x + m2 * y != m2 * q + e2 * r:
            problems.append("index bijection")

        ok = not problems
        case = {"trial": trial, "pass": ok}
        if problems:
            case["problems"] = problems
            failures.append(case)
        emit(case)
    return cases, failures


_RUNNERS = {
    "thm1": _run_thm1,
    "thm2": _run_thm2,
    "content-lemma": _run_content_lemma,
    "content-prop": _run_content_prop,
    "cuspidal": _run_cuspidal,
    "degmod": _run_degmod,
    "roundtrip": _run_roundtrip,
}


# ---------------------------------------------------------------------------
# commands

def _cmd_core(args) -> int:
    p = parse_partition(args.partition)
    if args.e < 1:
        raise ValueError("e must be >= 1")
    pair, image = hc_series_of(p, args.e)
    _emit(
        {
            "core": render_partition(pair.core),
            "quotient": [render_multipartition(image.components)],
            "charges": list(image.charges),
        }
    )
    return 0


def _cmd_uglov(args) -> int:
    mp = parse_multipartition(args.mp)
    charges = parse_charges(args.charges)
    if args.e < 1 or args.m < 1:
        raise ValueError("levels must be >= 1")
    if len(mp) != args.e or len(charges) != args.e:
        raise ValueError(
            f"expected {args.e} components, got {len(mp)} partitions"
            f" and {len(charges)} charges"
        )
    image = uglov(ChargedMultiPartition(mp, charges), args.m)
    _emit(
        {
            "mp": render_multipartition(image.components),
            "charges": list(image.charges),
        }
    )
    return 0


def _cmd_series(args) -> int:
    if args.n < 1 or args.e < 1:
        raise ValueError("n and e must be >= 1")
    _emit({"n": args.n, "e": args.e, "series": series_json(args.n, args.e)})
    return 0


def _cmd_blocks(args) -> int:
    if args.n < 1 or args.e < 1 or args.m < 1:
        raise ValueError("n, e, m must be >= 1")
    wanted = parse_partition(args.core) if args.core is not None else None
    series = []
    for pair in hc_pairs(args.n, args.e):
        if wanted is not None and pair.core != wanted:
            continue
        if args.variant == GU and pair.a > 0:
            params = specialization(pair, GU)
            blocks = root_key_partition(
                pair.e, pair.a, params, ennola_e(args.m)
            )
        else:
            blocks = block_partition(pair.e, pair.a, pair.core, args.m)
        series.append(
            {
                "core": render_partition(pair.core),
                "a": pair.a,
                "blocks": [
                    [render_multipartition(mp) for mp in block] for block in blocks
                ],
            }
        )
    if wanted is not None and not series:
        raise ValueError(f"no series with core {args.core!r}")
    _emit(
        {
            "n": args.n,
            "e": args.e,
            "m": args.m,
            "variant": args.variant,
            "series": series,
        }
    )
    return 0


_SUITE_PARAMS = {
    "thm1": ("max_n", "e", "m"),
    "thm2": ("max_n", "e", "m"),
    "content-lemma": ("max_n", "window"),
    "content-prop": ("max_n",),
    "cuspidal": ("max_n",),
    "degmod": ("max_n",),
    "roundtrip": ("seed", "trials"),
}


def _cmd_verify(args) -> int:
    runner = _RUNNERS[args.suite]
    emit = _emit if args.stream else (lambda case: None)
    cases, failures = runner(args, emit)
    if cases == 0:
        raise ValueError(
            f"no cases to check for verify {args.suite} with these parameters"
        )
    parameters = {"suite": args.suite}
    for key in _SUITE_PARAMS[args.suite]:
        value = getattr(args, key)
        if value is not None:
            parameters[key] = value
    report = {
        "command": f"verify {args.suite}",
        "parameters": parameters,
        "cases_checked": cases,
        "failures": failures,
        "pass": not failures,
    }
    _emit(report)
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abacore",
        description="Core-quotient, level-rank, and block combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_core = sub.add_parser("core", help="e-core and charged e-quotient")
    p_core.add_argument("--partition", required=True, help='e.g. "3,1,1"; "" is empty')
    p_core.add_argument("--e", type=int, required=True)
    p_core.set_defaults(func=_cmd_core)

    p_ug = sub.add_parser("uglov", help="level-rank bijection on charged multipartitions")
    p_ug.add_argument("--mp", required=True, help='components joined with ";"')
    p_ug.add_argument("--charges", required=True, help="comma-separated integers")
    p_ug.add_argument("--e", type=int, required=True, help="input level")
    p_ug.add_argument("--m", type=int, required=True, help="output level")
    p_ug.set_defaults(func=_cmd_uglov)

    p_se = sub.add_parser("series", help="partition of GL_n characters into series")
    p_se.add_argument("--n", type=int, required=True)
    p_se.add_argument("--e", type=int, required=True)
    p_se.set_defaults(func=_cmd_series)

    p_bl = sub.add_parser("blocks", help="block partitions of the series of GL_n")
    p_bl.add_argument("--n", type=int, required=True)
    p_bl.add_argument("--e", type=int, required=True, help="series level")
    p_bl.add_argument("--m", type=int, required=True, help="block level")
    p_bl.add_argument("--core", help="restrict to the series of this core")
    p_bl.add_argument("--variant", choices=("gl", "gu"), default="gl")
    p_bl.set_defaults(func=_cmd_blocks)

    p_ver = sub.add_parser("verify", help="batch verification suites")
    p_ver.add_argument(
        "suite",
        choices=sorted(_RUNNERS),
        help="which suite to run",
    )
    p_ver.add_argument("--max-n", dest="max_n", type=int, default=None)
    p_ver.add_argument("--e", type=int, default=None)
    p_ver.add_argument("--m", type=int, default=None)
    p_ver.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"default {DEFAULT_SEED}"
    )
    p_ver.add_argument("--trials", type=int, default=10000)
    p_ver.add_argument("--window", type=int, default=None)
    p_ver.add_argument(
        "--stream", action="store_true", help="one JSON line per case, summary last"
    )
    p_ver.set_defaults(func=_cmd_verify)
    return parser


_DEFAULT_MAX_N = {
    "thm1": 12,
    "thm2": 12,
    "content-lemma": 10,
    "content-prop": 10,
    "cuspidal": 10,
    "degmod": 10,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "verify" and args.max_n is None:
        args.max_n = _DEFAULT_MAX_N.get(args.suite, 10)
    try:
        return args.func(args)
    except (ValueError, DegreeSignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
