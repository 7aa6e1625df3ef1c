"""Per-layer tracing for the benchmark.

The tracer wraps public functions of the lab from the outside: a module-level
function is replaced in every ``wtf_lab`` module namespace that holds it (the
package imports by name, ``from .x import y``), and methods are replaced at
class level.  Nothing under ``src/`` is edited.  Each wrapped call records a
span (id, parent id, name, start, end) in memory, adds its self time (span
time minus the time of its child spans) and bumps its work counters.

Self time is reported as a share of the traced pass time (``self_frac``), so
a function that a workload bypasses reads 0 of the pass rather than a
duration; ``trace.pass_s`` gives the pass time the shares refer to.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size(value) -> int:
    return int(np.size(value))


class Tracer:
    """Spans and counters of one traced phase (one or more passes)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.code_depth: dict[tuple, int] = {}  # (model, x) -> deepest code_of
        self.next_id = 0
        self.passes = 0
        self.pass_s = 0.0
        self._restore: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def call(self, name, fn, args, kwargs, count=None):
        parent = self.stack[-1][0] if self.stack else 0
        self.next_id += 1
        span_id = self.next_id
        frame = [span_id, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            dur = t1 - t0
            if self.stack:
                self.stack[-1][1] += dur
            self.spans.append((span_id, parent, name, t0, t1))
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]
        if count is not None:
            count(self, args, kwargs, result)
        return result

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a span opened by the benchmark itself."""
        return self.call(name, fn, args, kwargs)

    def end_pass(self, seconds: float) -> None:
        needed = 0
        for depth in self.code_depth.values():
            needed += depth
        self.counts["dynamics.code_of.useful_digits"] += needed
        self.code_depth.clear()
        self.passes += 1
        self.pass_s += seconds

    # -- installation ----------------------------------------------------

    def _wrap(self, name, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, count)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        import wtf_lab.dynamics as dynamics
        import wtf_lab.report as report
        import wtf_lab.theta as theta

        for qualname, count in FUNCTIONS.items():
            module_name, attr = qualname.split(".")
            original = getattr(importlib.import_module(f"wtf_lab.{module_name}"), attr)
            wrapper = self._wrap(qualname, original, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "wtf_lab" and not mod_name.startswith("wtf_lab."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

        methods = [
            ("dynamics.tau", dynamics.CookieCutterSystem, "tau", _count_size("dynamics.tau.points", 1, "x")),
            ("dynamics.tree", dynamics.CookieCutterSystem, "tree", None),
            ("dynamics.inverse_affine", dynamics.AffineBranch, "inverse",
             _count_size("dynamics.inverse_affine.points", 1, "y")),
            ("dynamics.inverse_newton", dynamics.SineFamilyBranch, "inverse",
             _count_size("dynamics.inverse_newton.points", 1, "y")),
            ("theta.block", theta.ThetaSequence, "block", _count_block),
            ("cli.report_write", report.RunReport, "write", None),
        ]
        for name, cls, attr, count in methods:
            original = cls.__dict__[attr]
            if name == "dynamics.tree":
                wrapper = self._tree_wrapper(original)
            else:
                wrapper = self._wrap(name, original, count)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def _tree_wrapper(self, original):
        tracer = self

        def tree(sys_, depth, *args, **kwargs):
            cache = getattr(sys_, "_tree_cache", None)
            hit = isinstance(cache, dict) and depth in cache
            tracer.counts["dynamics.tree.hits"] += hit
            if not hit:
                tracer.counts["dynamics.tree.cylinders"] += sys_.ell ** depth
            return tracer.call("dynamics.tree", original, (sys_, depth) + args, kwargs)

        return tree

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output ----------------------------------------------------------

    def write_spans(self, path) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": names, "fields": ["id", "parent", "name", "t0", "t1"]}) + "\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f"[{sid},{parent},{index[name]},{t0 - base:.9f},{t1 - base:.9f}]\n")

    def metrics(self, extra: dict) -> dict:
        """Per-layer metrics, per traced pass (name -> (value, unit))."""
        n = max(self.passes, 1)
        pass_s = self.pass_s / n
        c, k = self.calls, self.counts
        out = {}
        for name in TRACED_NAMES:
            out[f"{name}.calls"] = (c[name] / n, "count")
            out[f"{name}.self_frac"] = (self.self_s[name] / self.pass_s if self.pass_s else 0.0, "ratio")
        for name, unit in WORK_COUNTS.items():
            out[name] = (k[name] / n, unit)
        coded = k["dynamics.code_of.digits"]
        out["dynamics.code_of.useful_frac"] = (
            k["dynamics.code_of.useful_digits"] / coded if coded else 0.0, "ratio")
        tree_calls = c["dynamics.tree"]
        out["dynamics.tree.hit_frac"] = (k["dynamics.tree.hits"] / tree_calls if tree_calls else 0.0, "ratio")
        ew_calls = c["graph.eval_W_many"]
        out["graph.eval_W_many.points_per_call"] = (
            k["graph.eval_W_many.points"] / ew_calls if ew_calls else 0.0, "count")
        out["trace.pass_s"] = (pass_s, "s")
        out["trace.spans"] = (len(self.spans) / n, "count")
        for name, value in extra.items():
            out[name] = value
        return out


# -- work counters -----------------------------------------------------------

def _count_size(counter, index, name):
    """Counter adding the element count of argument ``index``/``name``."""
    def count(t, args, kwargs, result):
        t.counts[counter] += _size(_arg(args, kwargs, index, name))
    return count


def _count_block(t, args, kwargs, result):
    t.counts["theta.block.values"] += int(_arg(args, kwargs, 2, "count"))


def _count_code_of(t, args, kwargs, result):
    sys_, x, n = _arg(args, kwargs, 0, "sys"), _arg(args, kwargs, 1, "x"), _arg(args, kwargs, 2, "n")
    t.counts["dynamics.code_of.digits"] += n
    key = (sys_.model_id, float(x))
    if t.code_depth.get(key, 0) < n:
        t.code_depth[key] = n


def _count_cylinder_bounds(t, args, kwargs, result):
    t.counts["dynamics.cylinder_bounds_many.rows"] += np.shape(_arg(args, kwargs, 1, "digits"))[0]


def _count_birkhoff(t, args, kwargs, result):
    t.counts["dynamics.birkhoff_sum.steps"] += int(_arg(args, kwargs, 3, "n"))


def _count_eval_w_many(t, args, kwargs, result):
    points = _size(_arg(args, kwargs, 1, "xs"))
    t.counts["graph.eval_W_many.points"] += points
    t.counts["graph.eval_W_many.point_terms"] += points * int(result[1])


def _count_sample_graph(t, args, kwargs, result):
    t.counts["metrics.sample_graph.points"] += len(result)


def _count_box_dimension(t, args, kwargs, result):
    cloud, scales = _arg(args, kwargs, 0, "cloud"), _arg(args, kwargs, 1, "scales")
    t.counts["metrics.box_dimension.point_scales"] += len(cloud) * len(list(scales))


def _count_write_csv(t, args, kwargs, result):
    t.counts["metrics.write_cloud_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_read_csv(t, args, kwargs, result):
    t.counts["metrics.read_cloud_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_holder_osc(t, args, kwargs, result):
    t.counts["metrics.holder_oscillation.points"] += 1


def _count_empirical_spectrum(t, args, kwargs, result):
    q_grid = _arg(args, kwargs, 1, "q_grid")
    per_q = _arg(args, kwargs, 2, "samples_per_q")
    depth = _arg(args, kwargs, 3, "birkhoff_depth")
    t.counts["metrics.empirical_spectrum.digits"] += len(list(q_grid)) * per_q * depth


def _count_correlation(t, args, kwargs, result):
    t.counts["metrics.correlation_dimension.pairs"] += int(_arg(args, kwargs, 2, "max_pairs", 10**6))


def _count_pressure(t, args, kwargs, result):
    t.counts["thermo.pressure.inexact_calls"] += not result.exact


def _count_sample_words(t, args, kwargs, result):
    t.counts["thermo.sample_words.digits"] += _size(result)


def _count_gibbs_sample(t, args, kwargs, result):
    t.counts["thermo.gibbs_sample.count"] += len(result)


# Module-level functions to wrap, "<module>.<function>" -> work counter.
FUNCTIONS = {
    "dynamics.code_of": _count_code_of,
    "dynamics.point_of_word": _count_size("dynamics.point_of_word.digits", 1, "digits"),
    "dynamics.cylinder_bounds_many": _count_cylinder_bounds,
    "dynamics.birkhoff_sum": _count_birkhoff,
    "dynamics.validate_system": None,
    "graph.eval_W_many": _count_eval_w_many,
    "graph.oscillation_over": None,
    "metrics.sample_graph": _count_sample_graph,
    "metrics.box_dimension": _count_box_dimension,
    "metrics.write_cloud_csv": _count_write_csv,
    "metrics.read_cloud_csv": _count_read_csv,
    "metrics.holder_oscillation": _count_holder_osc,
    "metrics.holder_oscillation_many": _count_size("metrics.holder_oscillation_many.points", 1, "xs"),
    "metrics.holder_birkhoff": None,
    "metrics.empirical_spectrum": _count_empirical_spectrum,
    "metrics.correlation_dimension": _count_correlation,
    "thermo.pressure": _count_pressure,
    "thermo.bowen_root": None,
    "thermo.A_of_q": None,
    "thermo.sample_words": _count_sample_words,
    "thermo.measure_stats": None,
    "thermo.gibbs_sample": _count_gibbs_sample,
}

# Every span name that gets calls and self_frac; the last two are opened by
# the benchmark around its own calls into the lab.
TRACED_NAMES = (
    ["dynamics.tau", "dynamics.tree", "dynamics.inverse_affine", "dynamics.inverse_newton"]
    + list(FUNCTIONS)
    + ["theta.block", "cli.report_write", "cli.main", "verify.run_battery"]
)

WORK_COUNTS = {
    "dynamics.tau.points": "count",
    "dynamics.inverse_newton.points": "count",
    "dynamics.inverse_affine.points": "count",
    "dynamics.code_of.digits": "count",
    "dynamics.point_of_word.digits": "count",
    "dynamics.cylinder_bounds_many.rows": "count",
    "dynamics.birkhoff_sum.steps": "count",
    "dynamics.tree.cylinders": "count",
    "graph.eval_W_many.points": "count",
    "graph.eval_W_many.point_terms": "count",
    "theta.block.values": "count",
    "metrics.sample_graph.points": "count",
    "metrics.box_dimension.point_scales": "count",
    "metrics.write_cloud_csv.bytes": "bytes",
    "metrics.read_cloud_csv.bytes": "bytes",
    "metrics.holder_oscillation.points": "count",
    "metrics.holder_oscillation_many.points": "count",
    "metrics.empirical_spectrum.digits": "count",
    "metrics.correlation_dimension.pairs": "count",
    "thermo.pressure.inexact_calls": "count",
    "thermo.sample_words.digits": "count",
    "thermo.gibbs_sample.count": "count",
}
