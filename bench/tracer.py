"""Layer tracing for the benchmark, done entirely from outside the package.

A `Tracer` wraps singcert's layer functions at every name a caller looks
them up by: the module global that a `from x import f` created, or the
class attribute a method call resolves. It rebinds those attributes while
installed and restores them on exit; no source file is edited.

Each wrapped call records a span (layer, start, end, parent span), kept in
flat in-memory arrays. `Tracer.summary` turns the spans into per-layer
call counts, inclusive and self seconds, and their split by pipeline
stage. A stage is named by the top-level call inside `run_check` that a
span descends from.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# (layer name, home module, attribute path). Every binding of the object
# found in a singcert module is rebound, so name-imported copies are
# covered as well as the home definition.
LAYERS = (
    ("pipeline.run_check", "singcert.pipeline", "run_check"),
    ("pipeline.emit", "singcert.pipeline", "emit"),
    ("chart.dubins_adapted_chart", "singcert.chart", "dubins_adapted_chart"),
    ("extremal.adjoint_trajectory", "singcert.extremal", "adjoint_trajectory"),
    ("extremal.condition_battery", "singcert.extremal", "condition_battery"),
    ("extremal.reference_flow", "singcert.extremal", "reference_flow"),
    ("systems.project_to_group", "singcert.systems",
     "MatrixGroupSystem.project_to_group"),
    ("secondvar.assemble_lq", "singcert.secondvar", "assemble_lq"),
    ("secondvar.chart_field_jacobian", "singcert.secondvar",
     "chart_field_jacobian"),
    ("secondvar.galerkin_assemble", "singcert.secondvar", "galerkin_assemble"),
    ("secondvar.galerkin_coercivity", "singcert.secondvar",
     "galerkin_coercivity"),
    ("secondvar.conjugate_point_trace", "singcert.secondvar",
     "conjugate_point_trace"),
    ("secondvar.conjugate_point_test", "singcert.secondvar",
     "conjugate_point_test"),
    ("geometry.certificate_check", "singcert.geometry", "certificate_check"),
    ("geometry.super_hamiltonian_flow", "singcert.geometry",
     "GroupGeometry.super_hamiltonian_flow"),
    ("geometry.solve_theta", "singcert.geometry", "GroupGeometry.solve_theta"),
    ("chart.inverse", "singcert.chart", "GroupChart.inverse"),
    ("chart.forward", "singcert.chart", "GroupChart.forward"),
    ("chart.frame", "singcert.chart", "GroupChart.frame"),
    ("chart.solve_in_frame", "singcert.chart", "GroupChart.solve_in_frame"),
    ("falsifier.competitor_sweep", "singcert.falsifier", "competitor_sweep"),
    ("falsifier.arrival_time", "singcert.falsifier", "TargetSpec.arrival_time"),
    ("falsifier.graph_distance", "singcert.falsifier", "graph_distance"),
    ("falsifier._quick_log", "singcert.falsifier", "_quick_log"),
    ("scipy.expm", "scipy.linalg", "expm"),
    ("scipy.logm", "scipy.linalg", "logm"),
    ("algebra.pairing", "singcert.algebra", "pairing"),
)

# calls of the z_fn / c_fn / a_fn callables that assemble_lq returns
LQ_EVAL = "secondvar.lq_eval"

# top-level calls inside run_check, by the stage they belong to; anything
# else directly under run_check (and run_check's own code) is "problem":
# config loading, system, chart and reference trajectory, falsifier target
# and report assembly
STAGE_OF = {
    "extremal.condition_battery": "conditions",
    "secondvar.assemble_lq": "coercivity",
    "secondvar.galerkin_coercivity": "coercivity",
    "secondvar.conjugate_point_test": "coercivity",
    "geometry.certificate_check": "certificate",
    "falsifier.competitor_sweep": "falsifier",
}
STAGES = ("problem", "conditions", "coercivity", "certificate", "falsifier")


def layer_names() -> list[str]:
    return [name for name, _, _ in LAYERS] + [LQ_EVAL]


def _resolve(module: str, path: str):
    """Return (owner, attribute, object) for a dotted attribute path."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


def _singcert_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "singcert"
                                    or name.startswith("singcert."))]


class Tracer:
    """Span recorder; `installed()` wraps every layer for its duration."""

    def __init__(self):
        self.names = layer_names()
        self._index = {name: i for i, name in enumerate(self.names)}
        self.kind = array("q")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.newton_iters = 0
        self.competitors = 0
        self.arrived = 0
        self.lq_points: list[set] = []
        self._originals: list = []
        self._layer_of: dict = {}
        self.absent: list[str] = []   # layers the package no longer defines

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped to record a span; after(result) runs on return."""
        idx = self._index[name]
        kind, parent, t0, t1 = self.kind, self.parent, self.t0, self.t1
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(kind)
            kind.append(idx)
            parent.append(stack[-1])
            t1.append(0.0)
            stack.append(sid)
            t0.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1[sid] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def _after_assemble_lq(self, problem):
        seen: set = set()
        self.lq_points.append(seen)
        for attr in ("z_fn", "c_fn", "a_fn"):
            inner = self.wrap(LQ_EVAL, getattr(problem, attr))

            def counted(t, inner=inner):
                seen.add(t)
                return inner(t)

            setattr(problem, attr, counted)

    def _after_solve_theta(self, result):
        self.newton_iters += int(result[2])

    def _after_competitor_sweep(self, report):
        self.competitors += len(report.records)
        self.arrived += sum(1 for r in report.records
                            if r["arrival"] is not None)

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Rebind every layer binding to its traced wrapper, then restore."""
        after = {"secondvar.assemble_lq": self._after_assemble_lq,
                 "geometry.solve_theta": self._after_solve_theta,
                 "falsifier.competitor_sweep": self._after_competitor_sweep}
        try:
            for name, module, path in LAYERS:
                try:
                    owner, attr, original = _resolve(module, path)
                except AttributeError:
                    self.absent.append(name)
                    continue
                wrapped = self.wrap(name, original, after.get(name))
                bindings = [(owner, attr)] if inspect.isclass(owner) else []
                for mod in _singcert_modules():
                    bindings += [(mod, key) for key, val in vars(mod).items()
                                 if val is original]
                if not bindings:
                    raise LookupError(f"layer {name}: no binding of "
                                      f"{module}.{path} in singcert")
                self._layer_of[id(original)] = name
                for obj, key in bindings:
                    self._originals.append((obj, key, original))
                    setattr(obj, key, wrapped)
            yield self
        finally:
            for obj, key, original in reversed(self._originals):
                setattr(obj, key, original)
            self._originals.clear()

    def escaped_bindings(self) -> list[str]:
        """Module globals or class attributes in singcert that still hold an
        unwrapped layer function (call while installed)."""
        escaped = []
        for mod in _singcert_modules():
            scopes = [(mod.__name__, vars(mod))]
            scopes += [(f"{mod.__name__}.{key}", vars(val))
                       for key, val in vars(mod).items()
                       if inspect.isclass(val) and val.__module__ == mod.__name__]
            for where, scope in scopes:
                escaped += [f"{where}.{key} ({self._layer_of[id(val)]})"
                            for key, val in scope.items()
                            if id(val) in self._layer_of]
        return escaped

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer and per-stage metrics of everything recorded so far."""
        kind = np.array(self.kind, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.t1) - np.array(self.t0)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_dur = dur - child
        # the span directly under the root (run_check or emit) that each
        # span descends from; parents always precede their children
        anchor = [-1] * kind.size
        for i, p in enumerate(self.parent):
            if p >= 0:
                anchor[i] = i if self.parent[p] < 0 else anchor[p]
        anchor = np.array(anchor, dtype=np.int64)
        stage_of_kind = np.array([STAGES.index(STAGE_OF.get(n, "problem"))
                                  for n in self.names])
        stage_idx = np.where(anchor >= 0, stage_of_kind[kind[anchor]], -1)

        layers, by_stage = {}, {s: {} for s in STAGES}
        for idx, name in enumerate(self.names):
            mine = kind == idx
            layers[f"{name}.calls"] = int(np.count_nonzero(mine))
            layers[f"{name}.s"] = float(dur[mine].sum())
            layers[f"{name}.self_s"] = float(self_dur[mine].sum())
            for pos, stage in enumerate(STAGES):
                sel = mine & (stage_idx == pos)
                if np.any(sel):
                    by_stage[stage][f"{name}.calls"] = int(np.count_nonzero(sel))
                    by_stage[stage][f"{name}.s"] = float(dur[sel].sum())
                    by_stage[stage][f"{name}.self_s"] = float(self_dur[sel].sum())

        lq_calls = layers[f"{LQ_EVAL}.calls"]
        distinct = sum(len(s) for s in self.lq_points)
        layers[f"{LQ_EVAL}.distinct_t"] = distinct
        layers[f"{LQ_EVAL}.hit_ratio"] = (1.0 - distinct / lq_calls
                                          if lq_calls else 0.0)
        layers["geometry.solve_theta.newton_iters"] = self.newton_iters
        sweep_s = layers["falsifier.competitor_sweep.s"]
        layers["falsifier.competitors_per_s"] = (self.competitors / sweep_s
                                                 if sweep_s else 0.0)
        layers["falsifier.arrived_share"] = (self.arrived / self.competitors
                                             if self.competitors else 0.0)

        # seconds per stage for each run_check call, in call order
        checks = []
        run_check = self._index["pipeline.run_check"]
        for root in np.flatnonzero((parent < 0) & (kind == run_check)):
            row = dict.fromkeys(STAGES, 0.0)
            row["problem"] = float(self_dur[root])
            for c in np.flatnonzero(parent == root):
                row[STAGES[stage_idx[c]]] += float(dur[c])
            row["total"] = float(dur[root])
            checks.append(row)
        return {"layers": layers, "by_stage": by_stage, "checks": checks}
