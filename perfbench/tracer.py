"""Span tracer that instruments the gridtree modules from outside.

Every public function of a traced module is replaced, at every module
binding that refers to it (``gridtree.detect.hypothesis_flow_distribution``
as well as ``gridtree.flows.hypothesis_flow_distribution`` and the package
re-export), by a wrapper that records one span per call.  A few methods are
wrapped on their classes.  ``enumerate_spanning_trees`` is a generator, so
it gets one span per ``next()`` rather than one per call.  Spans are kept in
flat in-memory arrays (name, start, end, parent, run id) and written out
when the benchmark ends; ``close()`` puts every original binding back.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("graph", "cycles", "placement", "flows", "detect", "simulate", "fileio", "cli")

#: Methods traced on their classes, per layer (module functions are discovered).
TRACED_METHODS = {
    "detect": (
        ("ReducedGaussian", "__init__"),
        ("ReducedGaussian", "logpdf"),
        ("ReducedGaussian", "logpdf_batch"),
        ("HypothesisCache", "gaussian"),
        ("HypothesisCache", "basis"),
        ("HypothesisCache", "loglik"),
    ),
    "simulate": (
        ("ErrorReport", "to_csv"),
        ("ErrorReport", "write_csv"),
        ("PlacementRanking", "to_csv"),
        ("PlacementRanking", "write_csv"),
    ),
}

#: Functions whose spans are opened per ``next()`` of the generator they return.
GENERATORS = {("graph", "enumerate_spanning_trees")}


def _public_functions(module):
    """Public functions defined in ``module`` itself (re-exports excluded)."""
    out = []
    for name, value in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ == module.__name__:
            out.append((name, value))
    return out


class Tracer:
    """Records spans around the gridtree public API while installed."""

    def __init__(self):
        self.names: list[str] = []  # span name table, e.g. "detect.detect_map"
        self.layer_of: list[str] = []
        self.name_of: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.run: array = array("i")
        self.run_id = -1
        self._stack: list[int] = []
        #: per span name: values gathered from call results (rows scored, ...)
        self.counts: dict[str, float] = defaultdict(float)
        self._bindings: list[tuple[object, str, object, object]] | None = None
        self._active = False

    # -- span bookkeeping ----------------------------------------------

    def _name_id(self, layer: str, qualname: str) -> int:
        self.names.append(f"{layer}.{qualname}")
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def new_run(self) -> None:
        """Start a new run id: spans opened from now on belong to it."""
        self.run_id += 1

    # -- wrappers ------------------------------------------------------

    def _wrap(self, fn, nid: int, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if hook is not None:
                hook(result)
            return result

        return traced

    def _wrap_generator(self, fn, nid: int):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)  # creating a generator runs none of its body

            def stepped():
                while True:
                    i = tracer._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(i)
                    tracer.counts[tracer.names[nid] + ":items"] += 1
                    yield item

            return stepped()

        return traced

    def _hooks(self):
        counts = self.counts

        def logpdf(result):
            counts["logpdf:finite"] += math.isfinite(result)

        def logpdf_batch(result):
            counts["logpdf_batch:rows"] += len(result)
            counts["logpdf_batch:finite"] += int(np.isfinite(result).sum())

        def descent(result):
            counts["descent:sweeps"] += result.iterations
            counts["descent:nonconverged"] += not result.converged

        def placements(result):
            counts["placements:items"] += len(result)

        return {
            ("detect", "ReducedGaussian.logpdf"): logpdf,
            ("detect", "ReducedGaussian.logpdf_batch"): logpdf_batch,
            ("detect", "detect_cycle_descent"): descent,
            ("placement", "enumerate_valid_placements"): placements,
        }

    # -- install / restore ---------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(binding site, attribute, original, wrapper) for every traced callable."""
        import gridtree  # noqa: F401  (the package must be loaded before its bindings are read)

        modules = [m for n, m in sys.modules.items() if n == "gridtree" or n.startswith("gridtree.")]
        hooks = self._hooks()
        plan = []
        for layer in LAYERS:
            module = sys.modules[f"gridtree.{layer}"]
            for name, fn in _public_functions(module):
                nid = self._name_id(layer, name)
                if (layer, name) in GENERATORS:
                    wrapped = self._wrap_generator(fn, nid)
                else:
                    wrapped = self._wrap(fn, nid, hooks.get((layer, name)))
                for site in modules:
                    for attr, value in list(vars(site).items()):
                        if value is fn:
                            plan.append((site, attr, fn, wrapped))
            for cls_name, meth in TRACED_METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
                qual = f"{cls_name}.{meth}"
                wrapped = self._wrap(fn, self._name_id(layer, qual), hooks.get((layer, qual)))
                plan.append((cls, meth, fn, wrapped))
        return plan

    def install(self) -> "Tracer":
        """Wrap every traced callable at each of its module bindings."""
        if self._bindings is None:
            self._bindings = self._plan()
        for site, attr, _, wrapped in self._bindings:
            setattr(site, attr, wrapped)
        self._active = True
        return self

    def close(self) -> None:
        """Put every original binding back; the tracer can be installed again."""
        if self._active:
            for site, attr, original, _ in reversed(self._bindings):
                setattr(site, attr, original)
            self._active = False

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- analysis ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays, with self time (duration minus child coverage)."""
        start = np.frombuffer(self.start, dtype=float) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end, dtype=float) if len(self.end) else np.zeros(0)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.array(self.name_of, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "run": np.array(self.run, dtype=np.int64),
            "duration": dur,
            "self": dur - child,
        }

    def save(self, path) -> None:
        """Write every span (plus the name table) to a compressed ``.npz`` file."""
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=a["name"],
            start=a["start"],
            end=a["end"],
            parent=a["parent"],
            run=a["run"],
        )

    def per_name(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (spans, total duration s, total self time s)."""
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=a["duration"], minlength=n)
        own = np.bincount(a["name"], weights=a["self"], minlength=n)
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def layer_metrics(self) -> dict[str, float]:
        """The per-module metrics of the benchmark, computed from the spans."""
        stats = self.per_name()
        counts = self.counts

        def calls(name):
            return stats.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return stats.get(name, (0, 0.0, 0.0))[1]

        def ratio(num, den):
            return float(num) / den if den else 0.0

        trees = counts["graph.enumerate_spanning_trees:items"]
        rows = counts["logpdf_batch:rows"]
        logpdf_calls = calls("detect.ReducedGaussian.logpdf")
        builds = calls("detect.ReducedGaussian.__init__")
        descents = calls("detect.detect_cycle_descent")
        scored = rows + logpdf_calls
        m = {
            "graph.enumerate_us_per_tree": 1e6 * ratio(total("graph.enumerate_spanning_trees"), trees),
            "graph.trees_enumerated": trees,
            "graph.mst_us_per_call": 1e6 * ratio(
                total("graph.max_weight_spanning_tree"), calls("graph.max_weight_spanning_tree")
            ),
            "graph.mst_calls": calls("graph.max_weight_spanning_tree"),
            "cycles.basis_us_per_call": 1e6 * ratio(
                total("cycles.fundamental_cycle_basis"), calls("cycles.fundamental_cycle_basis")
            ),
            "cycles.basis_calls": calls("cycles.fundamental_cycle_basis"),
            "placement.enumerate_us_per_placement": 1e6 * ratio(
                total("placement.enumerate_valid_placements"), counts["placements:items"]
            ),
            "placement.placements_enumerated": counts["placements:items"],
            "flows.obs_matrix_us_per_call": 1e6 * ratio(
                total("flows.observation_matrix"), calls("flows.observation_matrix")
            ),
            "flows.obs_matrix_calls": calls("flows.observation_matrix"),
            "flows.relaxed_solve_us_per_call": 1e6 * ratio(
                total("flows.relaxed_flow_solution"), calls("flows.relaxed_flow_solution")
            ),
            "flows.relaxed_solve_calls": calls("flows.relaxed_flow_solution"),
            "detect.gaussian_build_us": 1e6 * ratio(total("detect.ReducedGaussian.__init__"), builds),
            "detect.gaussian_builds": builds,
            "detect.score_ns_per_row": 1e9 * ratio(total("detect.ReducedGaussian.logpdf_batch"), rows),
            "detect.score_rows": rows,
            "detect.logpdf_us_per_call": 1e6 * ratio(total("detect.ReducedGaussian.logpdf"), logpdf_calls),
            "detect.logpdf_calls": logpdf_calls,
            "detect.scores_per_build": ratio(scored, builds),
            "detect.feasible_share": ratio(
                counts["logpdf_batch:finite"] + counts["logpdf:finite"], scored
            ),
            "detect.descent_sweeps_per_call": ratio(counts["descent:sweeps"], descents),
            "detect.descent_nonconverged": counts["descent:nonconverged"],
        }
        a = self.arrays()
        layer_of = np.array([LAYERS.index(layer) for layer in self.layer_of], dtype=np.int64)
        span_layer = layer_of[a["name"]] if len(a["name"]) else np.zeros(0, dtype=np.int64)
        own = np.bincount(span_layer, weights=a["self"], minlength=len(LAYERS))
        for k, layer in enumerate(LAYERS):
            m[f"{layer}.self_s"] = float(own[k])
        # fileio time including the parsing it does, counted at its outermost spans
        fileio = LAYERS.index("fileio")
        in_fileio = span_layer == fileio
        parent_layer = np.where(a["parent"] >= 0, span_layer[np.maximum(a["parent"], 0)], -1)
        outer = in_fileio & (parent_layer != fileio)
        m["fileio.io_ms"] = 1e3 * float(a["duration"][outer].sum())
        m["cli.self_ms"] = 1e3 * m["cli.self_s"]
        return m
