"""Span tracing of conflab's layers from outside the package.

Each traced function is rebound, for the duration of a ``Tracer`` context, in
every ``conflab`` module namespace that holds it (``from .x import y``
copies the name), so calls from anywhere in the package go through a wrapper
that records one span: name, start, end and parent span.  Spans stay in
memory until the run ends.  Work counts (samples drawn, edges built,
iterations run) are read off return values, and quadrature evaluations are
counted by wrapping the integrand passed in; nothing is computed again, so a
traced run writes the same ``report.json`` as an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# layer name -> work count name -> how to read it off the return value
TRACED = {
    "schrodinger.lowest_eigenpair": {"iterations": lambda r: r.iterations},
    "schrodinger.splu": {},
    "schrodinger.gs_shift_c0": {"evaluations": lambda r: r.evaluations},
    "schrodinger.log_gradient_fixedpoint": {"iterations": lambda r: r.iterations},
    "schrodinger.decompose_ground_state": {},
    "weight.radial_ball_integral": {"integrand_calls": None},
    "weight.total_mass": {},
    "weight.mu_f_ball": {},
    "curvature.pinching_profile": {"centers": lambda r: r.n_centers},
    "curvature.lp_scal_norm": {},
    "curvature.scalar_curvature_many": {},
    "manifold.sample_ball": {"samples": lambda r: len(r[1])},
    "manifold.sample_manifold": {"samples": lambda r: len(r[1])},
    "manifold.geodesic_points": {"points": lambda r: r.shape[0] * r.shape[1]},
    "manifold.lattice": {"nodes": len},
    "diagnostics.strong_ratio": {"pairs": lambda r: r.n_pairs},
    "diagnostics.ap_product": {},
    "diagnostics.reverse_holder": {},
    "diagnostics.doubling_constant": {},
    "diagnostics.isoperimetric_ratio": {},
    "diagnostics.biholder_fit": {},
    "metric.build_graph": {"edges": lambda r: int(r.edge_i.size)},
    "metric.EpsGraph.reweight": {},
    "metric.shortest_paths": {"sources": lambda r: int(r.sources.size)},
    "metric.refine_distance": {},
    "metric.stable_norm": {},
    "experiments.weak_star_test": {},
    "experiments.run": {},
}


class Tracer:
    """Context manager that traces every layer in ``TRACED`` while open."""

    def __init__(self):
        self.spans = []  # (span id, parent id or -1, name, start, end)
        self.counts = defaultdict(Counter)
        self._stack = []
        self._next_id = 0
        self._restore = []

    def _wrap(self, name, fn, work):
        sig = inspect.signature(fn) if name == "weight.radial_ball_integral" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                inner = bound.arguments["integrand"]
                counter = self.counts[name]

                def integrand(theta):
                    counter["integrand_calls"] += 1
                    return inner(theta)

                bound.arguments["integrand"] = integrand
                args, kwargs = bound.args, bound.kwargs
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            for key, read in work.items():
                if read is not None:
                    self.counts[name][key] += read(result)
            return result

        return traced

    def __enter__(self):
        modules = [
            m for key, m in sys.modules.items()
            if key == "conflab" or key.startswith("conflab.")
        ]
        for name, work in TRACED.items():
            module_name, _, attr = name.partition(".")
            module = importlib.import_module(f"conflab.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, work))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, work)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        return False

    def layer_stats(self) -> dict:
        """Per layer: calls, total and self seconds, and the work counts.

        Self time is a span's duration minus the durations of its direct
        child spans; calls are sequential, so children never overlap.
        """
        child_s = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        stats = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, **dict.fromkeys(work, 0)}
            for name, work in TRACED.items()
        }
        for span_id, _, name, start, end in self.spans:
            st = stats[name]
            st["calls"] += 1
            st["total_s"] += end - start
            st["self_s"] += end - start - child_s[span_id]
        for name, counts in self.counts.items():
            stats[name].update(counts)
        return stats


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats: dict) -> dict:
    """Flat ``layer.quantity`` metric values, with the derived ratios."""
    out = {}
    for name, st in stats.items():
        for key, value in st.items():
            out[f"{name}.{key}"] = value
    lowest, splu = stats["schrodinger.lowest_eigenpair"], stats["schrodinger.splu"]
    out["schrodinger.lu_per_solve"] = _ratio(splu["calls"], lowest["calls"])
    lp, pinch = stats["curvature.lp_scal_norm"], stats["curvature.pinching_profile"]
    out["curvature.lp_scal_norm.per_center"] = _ratio(lp["calls"], pinch["centers"])
    ball = stats["manifold.sample_ball"]
    out["manifold.sample_ball.samples_per_s"] = _ratio(ball["samples"], ball["total_s"])
    graph = stats["metric.build_graph"]
    out["metric.build_graph.edges_per_s"] = _ratio(graph["edges"], graph["total_s"])
    return out
