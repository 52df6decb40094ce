"""Record the reference outputs that perfbench/run.py gates on.

    python3 perfbench/record.py

Runs every suite invocation of every workload once, for each of the
ROUNDTRIP_SEEDS roundtrip seeds, with the sources in `src/` beside this
directory, and writes exit code, stdout sha256, `cases_checked`, `pass` and
the failure count of each to perfbench/reference.json.  The committed file
was recorded from the seed commit.  To record from another commit, check
that commit out and run this there.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    commands = {}
    for workload in run.WORKLOADS:
        for seed in range(run.ROUNDTRIP_SEEDS):
            for cli_args in run.invocations(workload, seed):
                commands.setdefault(" ".join(cli_args), cli_args)
    entries = {}
    for command, cli_args in sorted(commands.items()):
        outcome = run.run_invocation(cli_args)
        if not outcome["reported"] or outcome["cases_checked"] is None:
            print(f"error: {command} gave no summary", file=sys.stderr)
            return 1
        entries[command] = {key: outcome[key] for key in run.GATED}
        print(f"{command}: {entries[command]}", file=sys.stderr)
    reference = {"metadata": run.metadata(), "invocations": entries}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
