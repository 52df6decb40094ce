"""Command-line front end.

Subcommands:

    core      print the e-core and charged e-quotient of a partition
    uglov     apply the level-rank bijection to a charged multipartition
    series    print the partition of GL_n characters into series
    blocks    print the block partition of every series of GL_n at a level
    verify    batch verification suites; exit 0 iff all checks pass

Every command prints a single JSON document (one object per line with
--stream, written in blocks of lines with the bytes of one print per line);
identical invocations produce byte-identical output.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
input error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from math import gcd

from .blocks import (
    _member_facts,
    block_match_report,
    check_content_lemma,
    lossless_window,
    series_blocks,
)
from .hc_series import (
    DegreeSignError,
    degree_sign,
    hc_pairs,
    hc_series_of,
    series_json,
)
from .levelrank import _routes_agree, qr_em, uglov
from .partitions import (
    ChargedMultiPartition,
    Partition,
    _abaci,
    e_core,
    from_beta,
    hook_lengths,
    is_e_core,
    parse_charges,
    parse_multipartition,
    parse_partition,
    partitions_of,
    regroup,
    render_multipartition,
    to_beta,
)
from .polynomials import generic_degree, phi_multiplicity, singular_check

DEFAULT_SEED = 123456789
LEVEL_SWEEP_MAX = 12
VERIFY_FLAGS = ("max_n", "e", "m", "seed", "trials")
SERIES_MAX_N = 40  # p(40) = 37,338; series/blocks cost grows about 6x per +10
INPUT_MAX = 1000  # levels, partition sizes and |charges| of core and uglov
LEVEL_MAX = 40  # --e/--m of series, blocks, verify; series --n 40 --e 40: about 11 s
VERIFY_MAX_N = 16  # content-lemma, the slowest suite at n = 16, takes about 2 s
VERIFY_MAX_TRIALS = 100_000  # roundtrip takes about 8 s at this bound
BLOCK_LINES = 512  # stdout lines per write


# one C encoder for all lines, made as JSONEncoder(sort_keys=True).iterencode makes it
_ENCODER = json.JSONEncoder(sort_keys=True)
_iterencode = _ENCODER.iterencode  # where the C accelerator is missing
if json.encoder.c_make_encoder is not None:
    _iterencode = json.encoder.c_make_encoder(
        {}, _ENCODER.default, json.encoder.encode_basestring_ascii, None,
        _ENCODER.key_separator, _ENCODER.item_separator, True, False, True,
    )


class _Lines(list):
    """stdout's one writer: JSON lines, written and flushed BLOCK_LINES at a
    time and the rest at flush(), to whatever sys.stdout is at that moment."""

    def emit(self, obj: dict) -> None:
        self.append("".join(_iterencode(obj, 0)) + "\n")
        if len(self) == BLOCK_LINES:
            self.flush()

    def flush(self) -> None:
        sys.stdout.write("".join(self))
        sys.stdout.flush()
        self.clear()


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


# ---------------------------------------------------------------------------
# verify suites; each generator yields (cases checked, case) with case["pass"]

def _thm1_cases(max_n, e, m):
    pairs = _coprime_pairs(e, m)
    for n in range(1, max_n + 1):
        for e, m in pairs:
            for entry in block_match_report(n, e, m)["intersections"]:
                yield len(entry["members"]), {"n": n, "e": e, "m": m, **entry}


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
                    w = lossless_window(n, s, e)
                    ok = check_content_lemma(p, s, e)
                    yield 1, {
                        "partition": str(p), "s": s, "e": e, "window": w, "pass": ok
                    }


def _content_prop_cases(max_n):
    for n in range(1, max_n + 1):
        for e in range(1, 7):
            by_core: dict[Partition, list[Partition]] = {}
            for p in partitions_of(n):
                by_core.setdefault(e_core(p, e), []).append(p)
            # the e-core classes with a pair to compare, members named once
            classes = [
                [(p, str(p)) for p in sorted(members)]
                for members in by_core.values()
                if len(members) > 1
            ]
            for m in (m for m in range(1, 7) if gcd(e, m) == 1):
                for members in classes:
                    facts = [(p, name, _member_facts(p, e, m)) for p, name in members]
                    for i, (p, name_p, (core_p, key_p)) in enumerate(facts):
                        for r, name_r, (core_r, key_r) in facts[i + 1:]:
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
        for p in partitions_of(n):
            hooks = hook_lengths(p)
            for e in range(1, 11):
                ok = singular_check(p, e) == is_e_core(p, e)
                expected = n // e - sum(1 for h in hooks if h % e == 0)
                ok = ok and phi_multiplicity(generic_degree(p), e) == expected
                yield 1, {"partition": str(p), "e": e, "pass": ok}


def _degmod_cases(max_n):
    for n in range(1, max_n + 1):
        for p in partitions_of(n):
            for e in range(1, n + 1):
                case = {"partition": str(p), "e": e}
                try:
                    case["sign"] = degree_sign(p, e)
                    case["pass"] = True
                except DegreeSignError as exc:
                    case["pass"] = False
                    case["error"] = str(exc)
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


# suite name -> (case generator, {flag the suite reads: default})
SUITES = {
    "thm1": (_thm1_cases, {"max_n": 12, "e": None, "m": None}),
    "thm2": (_thm2_cases, {"max_n": 12, "e": None, "m": None}),
    "content-lemma": (_content_lemma_cases, {"max_n": 10}),
    "content-prop": (_content_prop_cases, {"max_n": 10}),
    "cuspidal": (_cuspidal_cases, {"max_n": 10}),
    "degmod": (_degmod_cases, {"max_n": 10}),
    "roundtrip": (_roundtrip_cases, {"seed": DEFAULT_SEED, "trials": 10000}),
}


def run_suite(suite: str, emit=lambda case: None, **given):
    """Run one verify suite with the flags `given` (the rest at their
    defaults), passing each case to `emit`.  Returns (parameters,
    cases_checked, failures); raises ValueError for a flag the suite does
    not read and for a run that checks nothing."""
    cases_of, defaults = SUITES[suite]
    for flag in given:
        if flag not in defaults:
            raise ValueError(
                f"verify {suite} does not take --{flag.replace('_', '-')}"
            )
    values = {**defaults, **given}
    cases = 0
    failures = []
    for checked, case in cases_of(**values):
        cases += checked
        emit(case)
        if not case["pass"]:
            failures.append(case)
    if cases == 0:
        raise ValueError(
            f"no cases to check for verify {suite} with these parameters"
        )
    parameters = {"suite": suite}
    parameters.update((k, v) for k, v in values.items() if v is not None)
    return parameters, cases, failures


# ---------------------------------------------------------------------------
# commands

def _check_bounds(bound: int, *named: tuple[str, int]) -> None:
    """Refuse any (name, value) pair with value above bound."""
    for name, value in named:
        if value > bound:
            raise ValueError(f"{name} {value} is too large; at most {bound} is supported")


def _cmd_core(args, emit) -> int:
    p = parse_partition(args.partition)
    _check_bounds(INPUT_MAX, ("--e", args.e), ("partition size", p.size))
    pair, image = hc_series_of(p, args.e)
    emit(
        {
            "core": str(pair.core),
            "quotient": [render_multipartition(image.components)],
            "charges": list(image.charges),
        }
    )
    return 0


def _cmd_uglov(args, emit) -> int:
    mp = parse_multipartition(args.mp)
    charges = parse_charges(args.charges)
    if args.e < 1 or args.m < 1:
        raise ValueError("levels must be >= 1")
    _check_bounds(
        INPUT_MAX,
        ("--e", args.e),
        ("--m", args.m),
        *(("partition size", q.size) for q in mp),
        *(("|charge|", abs(c)) for c in charges),
    )
    if len(mp) != args.e or len(charges) != args.e:
        raise ValueError(
            f"expected {args.e} components, got {len(mp)} partitions"
            f" and {len(charges)} charges"
        )
    image = uglov(ChargedMultiPartition(mp, charges), args.m)
    emit(
        {
            "mp": render_multipartition(image.components),
            "charges": list(image.charges),
        }
    )
    return 0


def _cmd_series(args, emit) -> int:
    _check_bounds(SERIES_MAX_N, ("--n", args.n))
    _check_bounds(LEVEL_MAX, ("--e", args.e))
    emit({"n": args.n, "e": args.e, "series": series_json(args.n, args.e)})
    return 0


def _cmd_blocks(args, emit) -> int:
    _check_bounds(SERIES_MAX_N, ("--n", args.n))
    _check_bounds(LEVEL_MAX, ("--e", args.e), ("--m", args.m))
    if args.n < 1 or args.e < 1 or args.m < 1:
        raise ValueError("n, e, m must be >= 1")
    wanted = parse_partition(args.core) if args.core is not None else None
    series = []
    for pair in hc_pairs(args.n, args.e):
        if wanted is not None and pair.core != wanted:
            continue
        blocks = series_blocks(pair, args.m, args.variant)
        series.append(
            {
                "core": str(pair.core),
                "a": pair.a,
                "blocks": [
                    [render_multipartition(mp) for mp in block] for block in blocks
                ],
            }
        )
    if wanted is not None and not series:
        raise ValueError(f"no series with core {args.core!r}")
    emit(
        {
            "n": args.n,
            "e": args.e,
            "m": args.m,
            "variant": args.variant,
            "series": series,
        }
    )
    return 0


def _cmd_verify(args, emit) -> int:
    given = {
        flag: getattr(args, flag)
        for flag in VERIFY_FLAGS
        if getattr(args, flag) is not None
    }
    # bound only the flags the suite reads: run_suite refuses the others
    read = {flag: v for flag, v in given.items() if flag in SUITES[args.suite][1]}
    _check_bounds(VERIFY_MAX_N, ("--max-n", read.get("max_n", 0)))
    _check_bounds(VERIFY_MAX_TRIALS, ("--trials", read.get("trials", 0)))
    _check_bounds(LEVEL_MAX, ("--e", read.get("e", 0)), ("--m", read.get("m", 0)))
    emit_case = emit if args.stream else (lambda case: None)
    parameters, cases, failures = run_suite(args.suite, emit_case, **given)
    emit(
        {
            "command": f"verify {args.suite}",
            "parameters": parameters,
            "cases_checked": cases,
            "failures": failures,
            "pass": not failures,
        }
    )
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
    charges_help = "comma-separated integers; write --charges=-1,0 if the first is negative"
    p_ug.add_argument("--charges", required=True, help=charges_help)
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
        choices=sorted(SUITES),
        help="which suite to run",
    )
    # no defaults here: run_suite fills them in, and must see which flags
    # were given to reject the ones a suite does not read
    p_ver.add_argument("--max-n", dest="max_n", type=int)
    p_ver.add_argument("--e", type=int)
    p_ver.add_argument("--m", type=int)
    p_ver.add_argument("--seed", type=int, help=f"default {DEFAULT_SEED}")
    p_ver.add_argument("--trials", type=int)
    p_ver.add_argument(
        "--stream", action="store_true", help="one JSON line per case, summary last"
    )
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    lines = _Lines()
    try:
        try:
            return args.func(args, lines.emit)
        finally:
            lines.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # reader gone: stdout to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE; 1 would read as a failed check


if __name__ == "__main__":
    sys.exit(main())
