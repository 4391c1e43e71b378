"""Spans around blochsim's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the traced modules
at every module attribute that binds it (``blochsim.sampler.run_trials``
and ``blochsim.cli.run_trials`` alike), so calls between modules are
caught. A span is (name, start, end, parent span index, operation id,
extra); spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

MODULES = ("generators", "bloch", "simplex", "sampler", "collapse", "serialize", "cli")
ALIASES = {"geometric_hit_count_oracle": "oracle"}
#: Codec helpers called once per number or row of a report. They are not
#: layer boundaries; their time stays in the self time of their caller
#: (serialize.dumps, cli.parse_config), and wrapping them would multiply
#: the span count by the size of the report.
ELEMENT_HELPERS = {"format_float", "complex_to_pair", "vector_to_pairs", "pairs_to_vector"}


def _trials_extra(args, kwargs, result):
    n_trials = args[2] if len(args) > 2 else kwargs["n_trials"]
    return [n_trials, args[0].dim]


#: Counts recorded with a span, taken from its arguments or its result.
EXTRAS = {
    "sampler.run_trials": _trials_extra,
    "sampler.oracle": lambda a, k, r: [r.n_samples, r.ties, r.disagreements],
    "serialize.dumps": lambda a, k, r: len(r.encode()),
    "cli.main": lambda a, k, r: r,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        #: when set, run_trials spans also record the tracemalloc peak
        self.alloc = False
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        if not self._patches:
            self._patches = self._find_patches()
        for ns, name, _, wrapper in self._patches:
            setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, original, _ in self._patches:
            setattr(ns, name, original)

    def _find_patches(self) -> list:
        defined = {}
        for short in MODULES:
            mod = importlib.import_module(f"blochsim.{short}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_") and name not in ELEMENT_HELPERS
                        and obj.__module__ == mod.__name__):
                    defined[id(obj)] = (obj, self._wrap(obj, f"{short}.{ALIASES.get(name, name)}"))
        patches = []
        for mod_name, ns in list(sys.modules.items()):
            if mod_name == "blochsim" or mod_name.startswith("blochsim."):
                for name, obj in vars(ns).items():
                    hit = defined.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        patches.append((ns, name, obj, hit[1]))
        return patches

    def _wrap(self, fn, name: str):
        spans, stack, extra_of = self.spans, self._stack, EXTRAS.get(name)
        tracer = self
        alloc_span = name == "sampler.run_trials"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            measure_alloc = alloc_span and tracer.alloc
            if measure_alloc:
                tracemalloc.reset_peak()
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = extra_of(args, kwargs, result) if extra_of and result is not None else None
                if measure_alloc:
                    extra = [*(extra or []), tracemalloc.get_traced_memory()[1]]
                spans[index] = (name, start, end, parent, tracer.op_id, extra)

        return traced


def aggregate(spans: list) -> dict:
    """Per span name: calls, busy time and self time (busy minus children)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["busy_s"] += end - start
        agg["self_s"] += end - start - child[i]
    return out


def per_layer(spans: list, alloc_spans: list) -> dict:
    """The benchmark's per-layer metrics, as {name: (value, unit)}."""
    agg = aggregate(spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    m: dict = {}
    for short in MODULES:
        m[f"{short}.self_s"] = (sum(a["self_s"] for n, a in agg.items() if n.startswith(short + ".")), "s")

    rt = "sampler.run_trials"
    m[f"{rt}.calls"] = (get(rt, "calls"), "count")
    m[f"{rt}.busy_s"] = (get(rt, "busy_s"), "s")
    m[f"{rt}.self_s"] = (get(rt, "self_s"), "s")
    trials, outcomes = 0, 0
    per_n: dict = {}
    for name, start, end, _, _, extra in spans:
        if name == rt and extra:
            n_trials, dim = extra[0], extra[1]
            trials += n_trials
            outcomes += n_trials * dim
            t, s = per_n.get(dim, (0, 0.0))
            per_n[dim] = (t + n_trials, s + end - start)
    m[f"{rt}.trials"] = (trials, "count")
    for dim in (2, 3, 8, 32):
        t, s = per_n.get(dim, (0, 0.0))
        m[f"{rt}.mtrials_s.N{dim}"] = (t / s / 1e6 if s else 0.0, "Mtrials/s")
    m[f"{rt}.ns_per_trial_outcome"] = (get(rt, "busy_s") / outcomes * 1e9 if outcomes else 0.0, "ns")
    peaks = [extra[-1] for name, *_, extra in alloc_spans if name == rt and extra]
    m[f"{rt}.peak_alloc_mb"] = (max(peaks) / 2**20 if peaks else 0.0, "MB")

    for name in ("sampler.measure_once", "sampler.measure_degenerate", "sampler.classify", "sampler.sample_lambda"):
        m[f"{name}.busy_s"] = (get(name, "busy_s"), "s")

    oracle = [extra for name, *_, extra in spans if name == "sampler.oracle" and extra]
    samples = sum(e[0] for e in oracle)
    m["sampler.oracle.calls"] = (get("sampler.oracle", "calls"), "count")
    m["sampler.oracle.busy_s"] = (get("sampler.oracle", "busy_s"), "s")
    busy = get("sampler.oracle", "busy_s")
    m["sampler.oracle.msamples_s"] = (samples / busy / 1e6 if busy else 0.0, "Msamples/s")
    m["sampler.oracle.tie_ratio"] = (sum(e[1] for e in oracle) / samples if samples else 0.0, "ratio")
    m["sampler.oracle.disagreements"] = (sum(e[2] for e in oracle), "count")

    for name in ("generators.build_generators", "simplex.basis_to_simplex",
                 "simplex.born_probabilities", "bloch.to_bloch", "serialize.dumps"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
    m["collapse.run_measurement.calls"] = (get("collapse.run_measurement", "calls"), "count")
    m["collapse.run_measurement.busy_s"] = (get("collapse.run_measurement", "busy_s"), "s")
    m["collapse.run_measurement.self_s"] = (get("collapse.run_measurement", "self_s"), "s")
    m["serialize.dumps.bytes"] = (sum(e for name, *_, e in spans if name == "serialize.dumps" and e), "bytes")
    m["serialize.trial_report_to_csv.busy_s"] = (get("serialize.trial_report_to_csv", "busy_s"), "s")
    m["cli.parse_config.busy_s"] = (get("cli.parse_config", "busy_s"), "s")
    m["cli.run_experiment.self_s"] = (get("cli.run_experiment", "self_s"), "s")
    codes = [e for name, *_, e in spans if name == "cli.main"]
    for code in (1, 2, 3):
        m[f"cli.exit_{code}"] = (sum(1 for c in codes if c == code), "count")
    return m
