"""Per-layer tracing for the abacore benchmark.

A traced child process calls `install()` before it runs the CLI.  That wraps
every public function of each library module (and two hot methods) in a span
that counts calls, self time and escaping exceptions.  The wrapper replaces
the original in every `abacore` module namespace that binds it, because the
modules import each other's functions by name.  `cache_info()` is read from
the original `lru_cache` objects.  The cost of a span itself is measured once
per process (`calibrate()`) and taken out of the self times, so that wrapping
a one-line helper does not inflate its own or its caller's self time.

`layer_metrics()` turns the snapshots of the traced processes of one workload
into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("partitions", "levelrank", "blocks", "hc_series", "polynomials")

# Methods traced besides the public module-level functions, and the name each
# is reported under.
METHODS = {
    ("partitions", "BetaSet", "__post_init__"): "BetaSet",
    ("polynomials", "IntPolynomial", "__divmod__"): "IntPolynomial.__divmod__",
}

_TIME = ("calls", "self_s")

# layer -> reported name -> stats.  A name is a traced function, or for the
# `errors` stat alone an exception class raised out of a function of that layer.
REPORTED = {
    "partitions": {
        "to_beta": _TIME,
        "from_beta": _TIME,
        "split_beta": _TIME,
        "join_beta": _TIME,
        "split_charged": _TIME,
        "join_charged": _TIME,
        "BetaSet": ("calls",),
        "hook_lengths": _TIME,
        "multipartitions_of": _TIME + ("hit_ratio",),
        "e_core": ("hit_ratio",),
        "e_quotient_charged": ("hit_ratio",),
        "partitions_of": ("hit_ratio",),
    },
    "levelrank": {
        name: _TIME
        for name in ("uglov", "apply_affine", "affine_perm", "check_uglov_diagram", "qr_em")
    },
    "blocks": {
        **{
            name: _TIME
            for name in (
                "root_residue_key",
                "residue_multiset",
                "residue_mod",
                "block_partition",
                "root_key_partition",
                "block_match_report",
                "check_content_lemma",
                "check_core_key_equivalence",
            )
        },
        "OmegaIsOne": ("errors",),
        "EquivalenceViolation": ("errors",),
    },
    "hc_series": {
        "hc_series_of": _TIME,
        "specialization": _TIME,
        "degree_sign": _TIME + ("errors",),
        "hc_pairs": ("hit_ratio",),
    },
    "polynomials": {
        "generic_degree": _TIME + ("hit_ratio",),
        "phi_multiplicity": _TIME,
        "mod_cyclotomic": _TIME,
        "IntPolynomial.__divmod__": _TIME,
        "gl_order": ("hit_ratio",),
    },
}

UNITS = {"calls": "count", "self_s": "s", "hit_ratio": "ratio", "errors": "count"}
BETTER = {"calls": "lower", "self_s": "lower", "hit_ratio": "higher", "errors": "lower"}


def per_layer_spec() -> list[dict]:
    """The per-layer metrics as BENCHMARK.json lists them, in report order."""
    spec = [
        {"name": f"{layer}.{name}.{stat}", "unit": UNITS[stat], "better": BETTER[stat]}
        for layer, names in REPORTED.items()
        for name, stats in names.items()
        for stat in stats
    ]
    spec += [
        {"name": f"{layer}.self_s", "unit": "s", "better": "lower"}
        for layer in LAYERS + ("cli",)
    ]
    spec.append({"name": "trace.overhead_frac", "unit": "ratio", "better": "lower"})
    return spec


# Calls of an empty function per calibration round, and rounds per process.
CALIBRATION_CALLS = 20_000
CALIBRATION_ROUNDS = 5


class Tracer:
    """Span statistics of one process: per traced name `[calls, self_s,
    errors]`, exceptions counted by the layer they first escaped from, and
    the total time of outermost spans.

    `inner` and `outer` are the cost of one span, in seconds: `inner` is the
    part timed inside the span, which is taken off the span's own self time;
    `outer` is the part its caller pays outside the timed interval, which is
    charged to the span so that it leaves the caller's self time (or
    `cli.self_s` for an outermost span)."""

    def __init__(self, inner: float = 0.0, outer: float = 0.0):
        self.inner = inner
        self.outer = outer
        self.stats: dict[str, list] = {}
        self.raised: dict[str, int] = {}
        self.caches: dict[str, object] = {}
        # One child-time accumulator per open span; the bottom entry sums the
        # outermost spans.
        self._stack = [0.0]

    def wrap(self, layer: str, name: str, fn):
        stat = self.stats.setdefault(f"{layer}.{name}", [0, 0.0, 0])
        stack = self._stack
        raised = self.raised
        inner, outer = self.inner, self.outer
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                stat[2] += 1
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    key = f"{layer}.{type(exc).__name__}"
                    raised[key] = raised.get(key, 0) + 1
                raise
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - inner - stack.pop()
                stack[-1] += elapsed + outer

        return span

    def snapshot(self, main_s: float) -> dict:
        """What the traced child sends back: `main_s` is the CLI's in-process
        run time, spans included."""
        return {
            "stats": self.stats,
            "raised": self.raised,
            "caches": {
                key: list(fn.cache_info()[:2]) for key, fn in self.caches.items()
            },
            "spans_s": self._stack[0],
            "main_s": main_s,
            "span_cost_s": [self.inner, self.outer],
        }


def _empty(x):
    return x


def calibrate() -> tuple[float, float]:
    """Estimate `(inner, outer)` for a Tracer from spans around an empty
    one-argument function: `inner` is the self time such a span records, and
    `inner + outer` is what a call through the span costs more than a bare
    call.  Each is the lowest of CALIBRATION_ROUNDS rounds, the round least
    disturbed by other work on the machine."""
    clock = time.perf_counter
    calls = range(CALIBRATION_CALLS)
    inner = outer = float("inf")
    for _ in range(CALIBRATION_ROUNDS):
        probe = Tracer()
        span = probe.wrap("calibration", "empty", _empty)
        start = clock()
        for i in calls:
            _empty(i)
        bare = clock() - start
        start = clock()
        for i in calls:
            span(i)
        wrapped = clock() - start
        recorded = probe.stats["calibration.empty"][1]
        inner = min(inner, recorded / CALIBRATION_CALLS)
        outer = min(outer, (wrapped - bare - recorded) / CALIBRATION_CALLS)
    return inner, max(0.0, outer)


def traced_objects(module):
    """(name, object) for each public function defined in the module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if hasattr(obj, "cache_info") or (
            inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)
        ):
            yield name, obj


def install() -> Tracer:
    """Import the CLI and its layers, and route every call of a traced
    function through a span of a new Tracer."""
    importlib.import_module("abacore.cli")
    tracer = Tracer(*calibrate())
    replace: dict[int, object] = {}
    for layer in LAYERS:
        module = sys.modules[f"abacore.{layer}"]
        for name, obj in list(traced_objects(module)):
            replace[id(obj)] = tracer.wrap(layer, name, obj)
            if hasattr(obj, "cache_info"):
                tracer.caches[f"{layer}.{name}"] = obj
    for (layer, cls_name, method), name in METHODS.items():
        cls = getattr(sys.modules[f"abacore.{layer}"], cls_name)
        setattr(cls, method, tracer.wrap(layer, name, vars(cls)[method]))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "abacore" and not mod_name.startswith("abacore."):
            continue
        for name, obj in list(vars(module).items()):
            if id(obj) in replace:
                setattr(module, name, replace[id(obj)])
    return tracer


def layer_metrics(snapshots: list[dict]) -> dict[str, float]:
    """Sum the snapshots of a workload's traced processes into per-layer
    metric values (without `trace.overhead_frac`).  A hit ratio with no
    lookups reads 0."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    errors: dict[str, int] = {}
    lookups: dict[str, list] = {}
    spans_s = main_s = 0.0
    for snap in snapshots:
        for key, (n, t, err) in snap["stats"].items():
            calls[key] = calls.get(key, 0) + n
            self_s[key] = self_s.get(key, 0.0) + t
            errors[key] = errors.get(key, 0) + err
        for key, n in snap["raised"].items():
            errors[key] = errors.get(key, 0) + n
        for key, (hits, misses) in snap["caches"].items():
            total = lookups.setdefault(key, [0, 0])
            total[0] += hits
            total[1] += hits + misses
        spans_s += snap["spans_s"]
        main_s += snap["main_s"]

    values = {}
    for layer, names in REPORTED.items():
        for name, stats in names.items():
            key = f"{layer}.{name}"
            for stat in stats:
                if stat == "calls":
                    value = calls.get(key, 0)
                elif stat == "self_s":
                    value = self_s.get(key, 0.0)
                elif stat == "errors":
                    value = errors.get(key, 0)
                else:
                    hits, total = lookups.get(key, (0, 0))
                    value = hits / total if total else 0.0
                values[f"{key}.{stat}"] = value
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            t for key, t in self_s.items() if key.startswith(f"{layer}.")
        )
    values["cli.self_s"] = main_s - spans_s
    return values
