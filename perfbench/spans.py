"""Span tracer installed around the program's public functions from outside.

Every wrapped call records one span (name id, start, end, parent span index)
in memory; `layer_metrics` turns the spans into per-layer counts and self
times, and `save` writes them out when the traced execution ends.  A span's
self time is its duration minus the durations of its direct child spans.

The tracer keeps one span stack.  That is enough because the benchmark runs
the program with one probe-pool worker (NL_THREADS=1).  With two workers a
phase span would cover its workers' spans from other threads, and the engine
caches, filled check-then-set, could be built twice by a race, so the counts
would depend on the schedule.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("system", "evolution", "hypotheses", "conjugacy", "derivatives")
CLI_FUNCTIONS = ("phase_check", "phase_conjugate", "phase_derivatives", "write_report")


def _width(v) -> int:
    """Number of columns of a state argument: (dim,) is one, (dim, b) is b."""
    shape = np.shape(v)
    return shape[1] if len(shape) == 2 else 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent index or -1)
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        """Span-recording wrapper; `on_call(args)` / `on_return(args, out)`
        add to the tracer's counters."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if on_return is not None:
                on_return(args, out)
            return out

        if on_call is not None:
            inner = traced

            def traced(*args, **kwargs):  # noqa: F811
                on_call(args)
                return inner(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def counter(self, key: str, fn):
        """Count-only wrapper for callables too small and too frequent for a span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ---------------------------------------------------------

    def install(self, pkg_name: str = "nonautolin") -> None:
        """Wrap the public functions of the traced modules, the cli phases and
        the ConjugacyEngine methods.  Each wrapper replaces the original in
        every package module that imported it by name."""
        pkg_mods = [m for k, m in sys.modules.items()
                    if k == pkg_name or k.startswith(pkg_name + ".")]
        counts, distinct = self.counts, self.distinct

        def on_h_call(args):
            distinct["h_n"].add(int(args[1]))

        def on_h_return(args, out):
            counts["h_iters"] += int(out[2])

        def on_bar_h_call(args):
            counts["bar_h_columns"] += _width(args[2])

        def on_backward_return(args, out):
            counts["picard_iters"] += int(out.iterations)

        hooks = {
            "evolution.backward_step_detailed": (None, on_backward_return),
            "ConjugacyEngine.h_detailed": (on_h_call, on_h_return),
            "ConjugacyEngine.bar_h_detailed": (on_bar_h_call, None),
        }
        replace: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{pkg_name}.{short}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                replace[id(fn)] = self.wrap(name, fn, *hooks.get(name, (None, None)))
        cli = sys.modules[f"{pkg_name}.cli"]
        for attr in CLI_FUNCTIONS:
            fn = getattr(cli, attr, None)
            if fn is not None:
                replace[id(fn)] = self.wrap(f"cli.{attr}", fn)
        for mod in pkg_mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])

        engine_cls = sys.modules[f"{pkg_name}.conjugacy"].ConjugacyEngine
        for attr, fn in list(vars(engine_cls).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            name = f"ConjugacyEngine.{attr}"
            setattr(engine_cls, attr, self.wrap(name, fn, *hooks.get(name, (None, None))))

    def wrap_system(self, spec) -> None:
        """Wrap the coupling callables of one built SystemSpec."""
        counts = self.counts

        def on_call(args):
            counts["coupling_columns"] += _width(args[1])

        spec.f.eval = self.wrap("catalog.coupling", spec.f.eval, on_call=on_call)
        spec.f.gamma = self.counter("gamma_calls", spec.f.gamma)

    # -- results --------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: (call count, total self time in seconds)."""
        n = len(self.spans)
        dur = np.empty(n)
        parent = np.empty(n, dtype=np.int64)
        nid = np.empty(n, dtype=np.int64)
        for i, (k, t0, t1, p) in enumerate(self.spans):
            nid[i], dur[i], parent[i] = k, t1 - t0, p
        child_sum = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_sum, parent[has_parent], dur[has_parent])
        self_t = dur - child_sum
        calls = np.bincount(nid, minlength=len(self.names))
        tot = np.bincount(nid, weights=self_t, minlength=len(self.names))
        return ({nm: int(calls[i]) for i, nm in enumerate(self.names)},
                {nm: float(tot[i]) for i, nm in enumerate(self.names)})

    def save(self, path) -> None:
        arr = np.array(self.spans, dtype=float).reshape(-1, 4)
        np.savez_compressed(path, spans=arr, names=np.array(json.dumps(self.names)))


# metric name -> span names whose self times add up to it
SELF_TIME = {
    "cli.phase_check_s": ("cli.phase_check",),
    "cli.phase_conjugate_s": ("cli.phase_conjugate",),
    "cli.phase_derivatives_s": ("cli.phase_derivatives",),
    "cli.write_report_s": ("cli.write_report",),
    "conjugacy.h_s": ("ConjugacyEngine.h_detailed", "ConjugacyEngine.h", "ConjugacyEngine.H"),
    "conjugacy.bar_h_s": ("ConjugacyEngine.bar_h_detailed", "ConjugacyEngine.bar_h",
                          "ConjugacyEngine.bar_H"),
    "conjugacy.contraction_s": ("ConjugacyEngine.contraction",),
    "conjugacy.series_window_s": ("ConjugacyEngine.series_window",),
    "evolution.backward_step_s": ("evolution.backward_step_detailed", "evolution.backward_step"),
    "evolution.coupled_trajectory_s": ("evolution.coupled_trajectory",),
    "catalog.coupling_s": ("catalog.coupling",),
    "hypotheses.certify_s": ("hypotheses.certify",),
    "hypotheses.check_basic_s": ("hypotheses.check_basic",),
    "hypotheses.check_advanced_first_s": ("hypotheses.check_advanced_first",),
    "hypotheses.check_advanced_second_s": ("hypotheses.check_advanced_second",),
    "system.green_span_s": ("system.green_span",),
    "system.operator_norm_s": ("system.operator_norm",),
    "derivatives.validate_jacobians_s": ("derivatives.validate_jacobians",),
    "derivatives.barh_jacobian_s": ("derivatives.d_barh_dxi_detailed", "derivatives.d_barh_dxi",
                                    "derivatives.d_barh_deta_detailed", "derivatives.d_barh_deta"),
    "derivatives.solution_jacobian_s": ("derivatives.d_x2_dxi", "derivatives.d_x2_deta",
                                        "derivatives.d_y_deta"),
}

# metric name -> span name whose call count it is
CALLS = {
    "conjugacy.h_calls": "ConjugacyEngine.h_detailed",
    "conjugacy.bar_h_calls": "ConjugacyEngine.bar_h_detailed",
    "evolution.backward_step_calls": "evolution.backward_step_detailed",
    "evolution.coupled_trajectory_calls": "evolution.coupled_trajectory",
    "catalog.coupling_calls": "catalog.coupling",
    "hypotheses.check_advanced_first_calls": "hypotheses.check_advanced_first",
    "system.green_span_calls": "system.green_span",
    "system.operator_norm_calls": "system.operator_norm",
    "derivatives.validate_jacobians_calls": "derivatives.validate_jacobians",
}

# metric name -> tracer counter
COUNTERS = {
    "conjugacy.h_iters": "h_iters",
    "conjugacy.bar_h_columns": "bar_h_columns",
    "evolution.picard_iters": "picard_iters",
    "catalog.coupling_columns": "coupling_columns",
    "catalog.gamma_calls": "gamma_calls",
}


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(counts, self times): every count and every `*_s` metric, 0 for layers
    the execution never entered."""
    calls, self_t = tracer.self_times()
    counts = {m: int(calls.get(span, 0)) for m, span in CALLS.items()}
    counts.update({m: int(tracer.counts.get(c, 0)) for m, c in COUNTERS.items()})
    counts["conjugacy.h_distinct_n"] = len(tracer.distinct["h_n"])
    times = {m: float(sum(self_t.get(s, 0.0) for s in spans)) for m, spans in SELF_TIME.items()}
    return counts, times
