"""Command-line front end, the one module that parses and renders argv text.

Subcommands:

    core      print the e-core and charged e-quotient of a partition
    uglov     apply the level-rank bijection to a charged multipartition
    series    print the partition of GL_n characters into series
    blocks    print the block partition of every series of GL_n at a level
    verify    batch verification suites (suites.py); exit 0 iff all checks pass

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
import sys

from .blocks import series_blocks
from .hc_series import GL, GU, hc_pairs, hc_partition
from .levelrank import uglov
from .partitions import (
    ChargedMultiPartition,
    MultiPartition,
    Partition,
    e_core,
    e_quotient_charged,
)
from .suites import LEVEL_MAX, SUITES, _check_bounds, run_suite

VERIFY_FLAGS = tuple(dict.fromkeys(flag for _, flags in SUITES.values() for flag in flags))
SERIES_MAX_N = 40  # p(40) = 37,338; series/blocks cost grows about 6x per +10
INPUT_MAX = 1000  # levels, partition sizes and |charges| of core and uglov
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


# ---------------------------------------------------------------------------
# text formats: str(Partition) is "3,1,1", multipartitions join with ";"

def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated integers of text; `what` names it in the error."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad {what} text {text!r}") from exc


def parse_partition(text: str) -> Partition:
    """Parse "3,1,1"; the empty string denotes the empty partition."""
    text = text.strip()
    return Partition(_parse_ints(text, "partition") if text else ())


def parse_multipartition(text: str) -> MultiPartition:
    """Parse components joined with ";".

    >>> parse_multipartition(";1")
    (Partition(parts=()), Partition(parts=(1,)))
    """
    return tuple(parse_partition(tok) for tok in text.split(";"))


def render_multipartition(mp: MultiPartition) -> str:
    """Join the components with ";", inverting parse_multipartition.

    >>> render_multipartition((Partition(()), Partition((1,))))
    ';1'
    """
    return ";".join(str(p) for p in mp)


def parse_charges(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        raise ValueError("empty charge list")
    return _parse_ints(text, "charge")


# ---------------------------------------------------------------------------
# commands

def _cmd_core(args, emit) -> int:
    p = parse_partition(args.partition)
    _check_bounds(INPUT_MAX, ("--e", args.e), ("partition size", p.size))
    image = e_quotient_charged(p, args.e)
    emit(
        {
            "core": str(e_core(p, args.e)),
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
    emit({"mp": render_multipartition(image.components), "charges": list(image.charges)})
    return 0


def _cmd_series(args, emit) -> int:
    _check_bounds(SERIES_MAX_N, ("--n", args.n))
    _check_bounds(LEVEL_MAX, ("--e", args.e))
    series = []
    for pair, members in hc_partition(args.n, args.e).items():
        quotients = [e_quotient_charged(p, args.e).components for p in members]
        series.append(
            {
                "n": pair.n,
                "e": pair.e,
                "a": pair.a,
                "core": str(pair.core),
                "members": [str(p) for p in members],
                "quotients": [render_multipartition(q) for q in quotients],
                "charges": list(e_quotient_charged(pair.core, args.e).charges),
            }
        )
    emit({"n": args.n, "e": args.e, "series": series})
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
                "blocks": [[render_multipartition(mp) for mp in b] for b in blocks],
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
    given = {f: getattr(args, f) for f in VERIFY_FLAGS if getattr(args, f) is not None}
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
    p_bl.add_argument("--variant", choices=(GL, GU), default=GL)
    p_bl.set_defaults(func=_cmd_blocks)

    p_ver = sub.add_parser("verify", help="batch verification suites")
    p_ver.add_argument("suite", choices=sorted(SUITES), help="which suite to run")
    # no defaults here: run_suite fills them in, and must see which flags
    # were given to reject the ones a suite does not read
    for flag in VERIFY_FLAGS:
        p_ver.add_argument("--" + flag.replace("_", "-"), dest=flag, type=int)
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
