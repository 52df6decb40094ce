"""Child-side runner of the abacore benchmark; one process per invocation.

    child.py --report-fd FD setup
        import abacore.cli, build its parser, report the CPU time this
        process had used by then, and exit.
    child.py --report-fd FD run [--trace] ARGS...
        run `python -m abacore ARGS...` unmodified in this process (traced
        with --trace), then report the exit code, this process's own peak RSS
        (VmHWM) and, when traced, the span statistics.

The report is one JSON object written to the inherited pipe FD, so stdout
carries exactly what the CLI printed.
"""

from __future__ import annotations

import json
import os
import runpy
import sys
import time


def _vm_hwm_kb() -> int:
    """Peak resident set size of this process, from its own memory map.

    The parent's wait4() ru_maxrss is not used: it can carry the size of the
    process that forked this one.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_cli(cli_args: list[str], trace: bool) -> tuple[int, dict]:
    tracer = None
    if trace:
        import layers

        tracer = layers.install()
    sys.argv = ["abacore", *cli_args]
    start = time.perf_counter()
    try:
        runpy.run_module("abacore", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    report = {"exit": code, "hwm_kb": _vm_hwm_kb()}
    if tracer is not None:
        report["trace"] = tracer.snapshot(main_s)
    return code, report


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--report-fd" or argv[2] not in ("setup", "run"):
        print(__doc__, file=sys.stderr)
        return 2
    fd = int(argv[1])
    if argv[2] == "setup":
        from abacore.cli import build_parser

        build_parser()
        code = 0
        report = {"ready_cpu_s": time.process_time()}
    else:
        trace = argv[3:4] == ["--trace"]
        code, report = _run_cli(argv[4:] if trace else argv[3:], trace)
    with os.fdopen(fd, "w") as out:
        json.dump(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
