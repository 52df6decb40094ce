"""Tests of the benchmark itself: the reference gate, the tracer and the
metric lists in BENCHMARK.json.

    python3 perfbench/selftest.py

Not collected by the repository's pytest run; takes about 15 seconds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import layers
import run

# Small inputs that between them reach every layer.
TINY = [
    ["verify", "thm2", "--max-n", "3", "--e", "1", "--m", "2", "--stream"],
    ["verify", "thm1", "--max-n", "4", "--e", "2", "--m", "3", "--stream"],
    ["verify", "content-prop", "--max-n", "4", "--stream"],
    ["verify", "cuspidal", "--max-n", "4", "--stream"],
    ["verify", "degmod", "--max-n", "4", "--stream"],
]

# Counts calls of the traced functions without wrapping them: a profile hook
# counts entries into their code objects, and lru_cache'd functions report
# hits plus misses.  Prints one JSON object of name -> calls.
COUNTER = r"""
import io, json, sys
from contextlib import redirect_stdout
import layers
from abacore import cli
codes, caches = {}, {}
for layer in layers.LAYERS:
    module = sys.modules["abacore." + layer]
    for name, obj in layers.traced_objects(module):
        if hasattr(obj, "cache_info"):
            caches[layer + "." + name] = obj
        else:
            codes[obj.__code__] = layer + "." + name
for (layer, cls, method), name in layers.METHODS.items():
    fn = vars(getattr(sys.modules["abacore." + layer], cls))[method]
    codes[fn.__code__] = layer + "." + name
counts = dict.fromkeys(list(codes.values()) + list(caches), 0)
def profile(frame, event, arg):
    if event == "call" and frame.f_code in codes:
        counts[codes[frame.f_code]] += 1
sys.setprofile(profile)
with redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
sys.setprofile(None)
for key, fn in caches.items():
    info = fn.cache_info()
    counts[key] = info.hits + info.misses
print(json.dumps(counts))
"""


def _reference() -> dict:
    return json.loads(run.REFERENCE.read_text())


def _copy_bench(root: Path) -> Path:
    """Copy BENCHMARK.json and the benchmark's directory into `root`; return
    the copied directory."""
    shutil.copy(run.ROOT / "BENCHMARK.json", root)
    bench = root / run.HERE.name
    shutil.copytree(run.HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    return bench


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reference = _reference()
        cls.outcome = run.run_invocation(["verify", "degmod", "--stream"])

    def test_recorded_output_passes(self):
        self.assertEqual(run.gate(self.outcome, self.reference), [])
        # degmod's known false claim stays recorded as failing.
        self.assertEqual(self.outcome["exit"], 1)
        self.assertFalse(self.outcome["pass"])

    def test_one_digest_byte_changed_fails(self):
        reference = copy.deepcopy(self.reference)
        entry = reference["invocations"][self.outcome["command"]]
        entry["sha256"] = ("0" if entry["sha256"][0] != "0" else "1") + entry["sha256"][1:]
        self.assertTrue(any("sha256" in p for p in run.gate(self.outcome, reference)))

    def test_cases_checked_off_by_one_fails(self):
        reference = copy.deepcopy(self.reference)
        reference["invocations"][self.outcome["command"]]["cases_checked"] += 1
        self.assertTrue(any("cases_checked" in p for p in run.gate(self.outcome, reference)))

    def test_run_exits_nonzero_on_changed_reference(self):
        reference = copy.deepcopy(self.reference)
        reference["invocations"]["verify cuspidal --max-n 14 --stream"]["cases_checked"] -= 1
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            bench = _copy_bench(Path(tmp))
            (Path(tmp) / "src").symlink_to(run.SRC, target_is_directory=True)
            (bench / run.REFERENCE.name).write_text(json.dumps(reference))
            proc = subprocess.run(
                [sys.executable, str(bench / "run.py"), "--workload", "degree-sweep",
                 "--seconds", "1"],
                capture_output=True, text=True, timeout=170,
            )
        self.assertEqual(proc.returncode, 1, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))


class TraceTest(unittest.TestCase):
    def test_traced_output_and_counts_match_untraced(self):
        env = dict(os.environ, PYTHONPATH=str(run.SRC))
        for cli_args in TINY:
            with self.subTest(cli_args=" ".join(cli_args)):
                plain = run.run_invocation(cli_args)
                traced = run.run_invocation(cli_args, trace=True)
                self.assertEqual(traced["sha256"], plain["sha256"])
                self.assertEqual(traced["exit"], plain["exit"])
                counted = json.loads(subprocess.run(
                    [sys.executable, "-c", COUNTER, *cli_args], cwd=run.HERE, env=env,
                    capture_output=True, text=True, check=True, timeout=60,
                ).stdout)
                calls = {key: stat[0] for key, stat in traced["trace"]["stats"].items()}
                self.assertEqual(calls, counted)
                self.assertGreater(sum(calls.values()), 0)

    def test_layer_metrics_cover_the_spec(self):
        traced = run.run_invocation(TINY[0], trace=True)
        values = layers.layer_metrics([traced["trace"]])
        values["trace.overhead_frac"] = 0.0
        self.assertEqual(sorted(values), sorted(m["name"] for m in layers.per_layer_spec()))
        self.assertGreater(values["levelrank.uglov.calls"], 0)


class SpanCostTest(unittest.TestCase):
    def test_correction_removes_span_cost(self):
        """A function calling a one-line helper 20,000 times, both traced:
        the corrected self times add up to about the untraced time."""
        def helper(x):
            return x + 1

        def work(f):
            total = 0
            for _ in range(20_000):
                total = f(total)
            return total

        def lowest(tracer_args=None):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                if tracer_args is None:
                    work(helper)
                else:
                    tracer = layers.Tracer(*tracer_args)
                    tracer.wrap("t", "work", work)(tracer.wrap("t", "helper", helper))
                times.append(
                    time.perf_counter() - start if tracer_args is None
                    else sum(stat[1] for stat in tracer.stats.values())
                )
            return min(times)

        bare = lowest()
        raw = lowest((0.0, 0.0))
        corrected = lowest(layers.calibrate())
        # The tracer adds several times the helper's own cost; the correction
        # must take at least 80% of that back out.
        self.assertGreater(raw, 2 * bare)
        self.assertLess(abs(corrected - bare), 0.2 * (raw - bare))


class ProbeTest(unittest.TestCase):
    def test_speed_is_measured_and_probe_stops(self):
        cpu = sorted(os.sched_getaffinity(0))[-1]
        probe = run.Probe(cpu)
        try:
            self.assertEqual(os.sched_getaffinity(probe.proc.pid), {cpu})
            outcome = run.run_invocation(TINY[0], probe=probe)
            # The probe's kernel rate on a 2.1 GHz Xeon vCPU is 0.7-1.5
            # times the reference rate; a factor of 5 either way means the
            # samples are misread.
            self.assertGreater(outcome["speed"], 0.2)
            self.assertLess(outcome["speed"], 5.0)
        finally:
            probe.close()
        self.assertIsNotNone(probe.proc.poll())


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(spec["per_layer"], layers.per_layer_spec())

    def test_exits_nonzero_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            _copy_bench(Path(tmp))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "degree-sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
