"""Benchmark workloads and the correctness oracle.

A workload is a list of calls into the public pipeline API, built from
the benchmark seed; the seed reaches the program only as
`falsifier.seed` and `certificate.seed` in the generated configs. Each
report a call returns is one check. The oracle compares every check with
the verdict and the seed-independent margins recorded in
`reference.json`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# relative drift allowed on a seed-independent margin
MARGIN_RTOL = 1e-9


@dataclass(frozen=True)
class Call:
    """One run_check call, or one run_sweep call when sweep is set."""

    label: str
    config: dict
    sweep: tuple | None = None   # (parameter, values)

    def labels(self) -> list[str]:
        if self.sweep is None:
            return [self.label]
        param, values = self.sweep
        return [f"{self.label} {param}={v}" for v in values]

    def run(self, pipeline):
        """Return (reports, emitted text), as the CLI would produce them."""
        if self.sweep is None:
            report = pipeline.run_check(self.config)
            return [report], pipeline.emit(report)
        reports = pipeline.run_sweep(self.config, *self.sweep)
        return reports, pipeline.emit(reports)


@dataclass(frozen=True)
class Workload:
    name: str
    build: object           # (seed, smoke) -> list[Call]
    bypassed: frozenset     # layers that must record no call

    def calls(self, seed: int, smoke: bool = False) -> list[Call]:
        calls = self.build(seed, smoke)
        if smoke:
            calls = [dataclasses.replace(c, label="smoke " + c.label)
                     for c in calls]
        return calls


# --smoke: the same calls at toy sizes, for the benchmark's own tests
SMOKE_SIZES = {"galerkin_k": [4],
               "certificate": {"n_samples": 8, "grid_points": 5},
               "falsifier": {"n_samples": 6}}


def _dubins(space_form: str, n: int, seed: int, smoke: bool, **extra) -> dict:
    config = {"system": {"kind": "dubins", "space_form": space_form, "N": n},
              "certificate": {"seed": seed}, "falsifier": {"seed": seed}}
    for key, val in {**(SMOKE_SIZES if smoke else {}), **extra}.items():
        if isinstance(val, dict):
            config.setdefault(key, {}).update(val)
        else:
            config[key] = val
    return config


def _euclid_certify(seed, smoke):
    return [Call("euclidean N=3", _dubins("euclidean", 3, seed, smoke))]


def _coercivity_sweep(seed, smoke):
    n, values = (3, (4, 8)) if smoke else (4, (8, 16))
    config = _dubins("euclidean", n, seed, smoke,
                     checks=["conditions", "coercivity"])
    return [Call(f"euclidean N={n}", config, ("K", values))]


def _curved_falsify(seed, smoke):
    return [Call(f"{space} N=4", _dubins(space, 4, seed, smoke,
                                         checks=["conditions", "falsifier"]))
            for space in ("sphere", "hyperbolic")]


_GEOMETRY = {"geometry.certificate_check", "geometry.super_hamiltonian_flow",
             "geometry.solve_theta", "chart.inverse", "chart.forward",
             "scipy.logm"}
_SECONDVAR = {"secondvar.assemble_lq", "secondvar.chart_field_jacobian",
              "secondvar.galerkin_assemble", "secondvar.galerkin_coercivity",
              "secondvar.conjugate_point_trace",
              "secondvar.conjugate_point_test", "secondvar.lq_eval"}
_FALSIFIER = {"falsifier.competitor_sweep", "falsifier.arrival_time",
              "falsifier.graph_distance", "falsifier._quick_log",
              # only competitor integration takes the RK4 path
              "systems.project_to_group"}

WORKLOADS = {w.name: w for w in (
    Workload("euclid-certify", _euclid_certify, frozenset()),
    Workload("coercivity-sweep", _coercivity_sweep,
             frozenset(_GEOMETRY | _FALSIFIER)),
    Workload("curved-falsify", _curved_falsify,
             frozenset(_GEOMETRY | _SECONDVAR
                       | {"chart.frame", "chart.solve_in_frame"})),
)}


def margins(report: dict) -> dict:
    """The seed-independent margins a report carries."""
    stages = report["stages"]
    out = {}
    coercivity = stages.get("coercivity", {})
    if "galerkin" in coercivity:
        out["galerkin"] = float(coercivity["galerkin"]["margin"])
        out["conjugate_point"] = float(coercivity["conjugate_point"]["margin"])
    certificate = stages.get("certificate", {})
    if "report" in certificate:
        out["certificate_min_sv"] = float(
            certificate["report"]["min_singular_value"])
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def problems(label: str, report: dict, reference: dict) -> list[str]:
    """Ways a check's report departs from its reference; empty if none."""
    expected = reference[label]
    found = []
    if report["verdict"] != expected["verdict"]:
        found.append(f"verdict {report['verdict']!r}, expected "
                     f"{expected['verdict']!r}")
    got = margins(report)
    for key, ref in expected["margins"].items():
        val = got.get(key)
        if val is None or not math.isfinite(val) or \
                abs(val - ref) > MARGIN_RTOL * abs(ref):
            found.append(f"{key} margin {val!r}, reference {ref!r}")
    return found
