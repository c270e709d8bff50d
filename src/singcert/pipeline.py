"""Configuration ingestion, pipeline orchestration, and report emission.

The pipeline runs the verification stages in dependency order: necessary
conditions, second-variation coercivity (two independent methods, both of
which must say coercive), the field-of-extremals certificate, and the
empirical falsifier. A hard failure skips the remaining stages; a
falsifier counterexample overrides every other verdict. A stage that
breaks down numerically (chart inversion, projection onto Sigma, a
singular linear solve) is recorded with status "error", the remaining
stages are skipped, and the overall verdict is "error". A system that
breaks a hypothesis runs no stage; each requested stage is an "error".
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import time

import numpy as np
import scipy
import jsonschema

from . import __version__
from .chart import OutOfChartError, dubins_adapted_chart
from .extremal import (
    adjoint_trajectory,
    check_table,
    condition_battery,
    dubins_initial_covector,
    trajectory_to_csv,
    verify_structure_properties,
)
from .falsifier import TargetSpec, competitor_sweep, report_to_csv
from .geometry import ProjectionError, certificate_check, flow_samples_to_csv
from .numerics import time_grid
from .secondvar import (
    DEFAULT_RHO_GRID,
    assemble_lq,
    conjugate_point_test,
    det_trace_to_csv,
    galerkin_coercivity,
)
from .systems import build_dubins_system

SCHEMA_VERSION = 1

# most grid steps horizon / dt and horizon / falsifier.dt may ask for, and
# most certificate grid points and certificate or falsifier samples
MAX_GRID_STEPS = 10 ** 6

# largest Galerkin K: the finest level, 4K pieces, builds several dense
# (R + 4mK)^2 matrices and runs a dense eigh on them. At K = 128 that is
# 1027^2 (8 MB) at N = 3 and 2058^2 (34 MB) at N = 5, a few seconds and a
# few hundred MB; the memory grows like K^2. N has no maximum, so the width
# R + 4mK is capped too, at its value for N = 5 and this K
MAX_GALERKIN_K = 128

# the pipeline's stages in dependency order
STAGES = ("conditions", "coercivity", "certificate", "falsifier")

# the parameters run_sweep varies, each with what builds its config value
# from one sweep value and the path of keys to that value in the config
SWEEP_PARAMETERS = {"N": (int, ("system", "N")),
                    "horizon": (float, ("horizon",)),
                    "K": (lambda v: [int(v)], ("galerkin_k",))}

# numerical breakdowns a stage reports as status "error" instead of raising
STAGE_ERRORS = (OutOfChartError, ProjectionError, np.linalg.LinAlgError)

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "integer", "enum": [SCHEMA_VERSION]},
        "system": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"type": "string", "enum": ["dubins"]},
                "space_form": {"type": "string",
                               "enum": ["euclidean", "sphere", "hyperbolic"]},
                "N": {"type": "integer", "minimum": 3},
                "drift_sign": {"type": "number", "enum": [1, -1]},
            },
            "required": ["kind"],
        },
        "horizon": {"type": "number", "exclusiveMinimum": 0},
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "rho_grid": {"type": "array", "items": {"type": "number"},
                     "minItems": 1},
        # one K per run; the K sweep runs several
        "galerkin_k": {"type": "array",
                       "items": {"type": "integer", "minimum": 4,
                                 "maximum": MAX_GALERKIN_K},
                       "minItems": 1, "maxItems": 1},
        "certificate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_samples": {"type": "integer", "minimum": 1,
                              "maximum": MAX_GRID_STEPS},
                "seed": {"type": "integer", "minimum": 0},
                "grid_points": {"type": "integer", "minimum": 2,
                                "maximum": MAX_GRID_STEPS},
            },
        },
        "falsifier": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_samples": {"type": "integer", "minimum": 0,
                              "maximum": MAX_GRID_STEPS},
                "radius": {"type": "number", "minimum": 0},
                "seed": {"type": "integer", "minimum": 0},
                "dt": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "checks": {"type": "array", "uniqueItems": True,
                   "items": {"type": "string", "enum": list(STAGES)}},
        "record_timings": {"type": "boolean"},
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "report": {"type": ["string", "null"]},
                "csv_dir": {"type": ["string", "null"]},
            },
        },
    },
}

# built once: jsonschema.validate would check CONFIG_SCHEMA against its
# meta-schema again on every call
_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)

DEFAULT_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "system": {"kind": "dubins", "space_form": "euclidean", "N": 3,
               "drift_sign": 1},
    "horizon": 1.0,
    "dt": 0.01,
    "rho_grid": list(DEFAULT_RHO_GRID),
    "galerkin_k": [16],
    "certificate": {"n_samples": 128, "seed": 0, "grid_points": 33},
    "falsifier": {"n_samples": 200, "radius": 0.1, "seed": 0, "dt": 0.02},
    "checks": ["conditions", "coercivity", "certificate", "falsifier"],
    "record_timings": False,
    "output": {"report": None, "csv_dir": None},
}


class ConfigError(ValueError):
    """Invalid run configuration."""


def _merge(defaults, override):
    if isinstance(defaults, dict) and isinstance(override, dict):
        out = dict(defaults)
        for key, val in override.items():
            out[key] = _merge(defaults.get(key), val)
        return out
    return copy.deepcopy(override)


def _non_finite(obj) -> bool:
    """Whether a parsed JSON value holds NaN or an infinity anywhere."""
    if isinstance(obj, dict):
        return any(_non_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_non_finite(v) for v in obj)
    return isinstance(obj, float) and not np.isfinite(obj)


def load_config(doc: dict) -> dict:
    """Validate a config document and materialize all defaults."""
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
    if error is not None:
        raise ConfigError(f"{error.json_path}: {error.message}") from error
    # Python's json reads NaN and Infinity, which the schema lets through
    if _non_finite(doc):
        raise ConfigError("config holds a NaN or infinite number")
    config = _merge(DEFAULT_CONFIG, doc)
    for key, dt in (("dt", config["dt"]), ("falsifier.dt",
                                           config["falsifier"]["dt"])):
        steps = config["horizon"] / dt
        if not steps <= MAX_GRID_STEPS:
            raise ConfigError(f"horizon / {key} is {steps:.3g} grid steps, "
                              f"more than {MAX_GRID_STEPS}")
    # a needle's window 2 eps^2, eps up to the radius, must fit the horizon
    radius = config["falsifier"]["radius"]
    if "falsifier" in config["checks"] and \
            radius > np.sqrt(config["horizon"] / 2.0):
        raise ConfigError(f"falsifier.radius {radius:g} needs a horizon of at "
                          f"least 2 radius^2, not {config['horizon']:g}")
    n, k = config["system"]["N"], config["galerkin_k"][0]
    width, cap = _galerkin_width(n, k), _galerkin_width(5, MAX_GALERKIN_K)
    if "coercivity" in config["checks"] and width > cap:
        raise ConfigError(f"galerkin_k {k} at N = {n} needs dense Galerkin "
                          f"matrices {width} wide, more than {cap}")
    return config


def _galerkin_width(n: int, k: int) -> int:
    """R + 4mK at N = n, R = N(N - 1)/2 and m = N - 1."""
    return n * (n - 1) // 2 + 4 * (n - 1) * k


def thread_pool_size() -> int:
    """SINGCERT_THREADS as echoed in the report; no stage uses it yet."""
    raw = os.environ.get("SINGCERT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _build_problem(config: dict):
    spec = config["system"]
    system = build_dubins_system(spec["space_form"], spec["N"])
    # the covector is normalized against the unflipped drift, so a flipped
    # drift sign yields F_0 = -1 and a positive-definite Legendre form: a
    # deliberately broken reference for exercising the failure path
    p0 = dubins_initial_covector(system)
    if spec.get("drift_sign", 1) == -1:
        system = dataclasses.replace(system, drift=-system.drift)
    chart = dubins_adapted_chart(system)
    trajectory = adjoint_trajectory(system, p0,
                                    time_grid(config["horizon"], config["dt"]))
    return system, chart, trajectory, verify_structure_properties(system, chart)


def run_check(config: dict) -> dict:
    """Run the staged pipeline and assemble the machine-readable report."""
    config = load_config(config)
    system, chart, trajectory, hypotheses = _build_problem(config)
    stages: dict = {}
    timings: dict = {}
    # a system that breaks a hypothesis runs no stage
    table = check_table(hypotheses)
    broken = "; ".join(name + " (" + ", ".join(
        f"{k} {v:.6g}" for k, v in entry.items() if k != "passed") + ")"
        for name, entry in table.items() if not entry["passed"])
    hard_failure = bool(broken)
    csv_dir = config["output"]["csv_dir"]
    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)
    # the conjugate-point report whose rho the certificate's field takes
    conj = None

    for stage in (s for s in STAGES if s in config["checks"]):
        if hard_failure:
            stages[stage] = {"status": "error", "reason": "broken hypotheses: "
                             + broken} if broken else {"status": "skipped"}
            timings[stage] = 0.0
            continue
        started = time.perf_counter()
        try:
            if stage == "conditions":
                report = condition_battery(trajectory)
                stages[stage] = {"status": "passed" if report.passed else "failed",
                                 "report": report.as_dict()}
                hard_failure = not report.passed
                if csv_dir:
                    trajectory_to_csv(trajectory,
                                      os.path.join(csv_dir, "trajectory.csv"))
            elif stage == "coercivity":
                lq = assemble_lq(system, trajectory, chart)
                gal = galerkin_coercivity(lq, config["galerkin_k"][0])
                conj = conjugate_point_test(lq, rho_grid=config["rho_grid"])
                passed = gal.coercive and conj.coercive
                agree = gal.verdict == conj.verdict
                stages[stage] = {"status": "passed" if passed else "failed",
                                 "galerkin": gal.as_dict(),
                                 "conjugate_point": conj.as_dict(),
                                 "verdicts_agree": agree}
                if not agree:
                    stages[stage]["reason"] = (
                        f"the deciders disagree: Galerkin says {gal.verdict} "
                        f"(margin {gal.margin:.6g}), the conjugate-point "
                        f"test says {conj.verdict} (margin {conj.margin:.6g} "
                        f"at rho {conj.rho:g})")
                hard_failure = not passed
                if csv_dir:
                    det_trace_to_csv(conj, os.path.join(csv_dir, "det_trace.csv"))
            elif stage == "certificate":
                if conj is None:
                    conj = conjugate_point_test(
                        assemble_lq(system, trajectory, chart),
                        rho_grid=config["rho_grid"])
                cert_cfg = config["certificate"]
                cert_grid = np.linspace(0.0, config["horizon"],
                                        cert_cfg["grid_points"])
                report = certificate_check(
                    system, trajectory, chart, rho=conj.rho,
                    grid=cert_grid, n_samples=cert_cfg["n_samples"],
                    seed=cert_cfg["seed"])
                stages[stage] = {
                    "status": "passed" if report.certified else "failed",
                    "report": report.as_dict()}
                if report.reason is not None:
                    stages[stage]["reason"] = report.reason
                hard_failure = not report.certified
                if csv_dir:
                    flow_samples_to_csv(system, cert_grid, report.covectors,
                                        os.path.join(csv_dir, "flow.csv"))
            elif stage == "falsifier":
                fals_cfg = config["falsifier"]
                target = TargetSpec(system, trajectory.q[-1], chart)
                report = competitor_sweep(
                    system, trajectory, target,
                    n_samples=fals_cfg["n_samples"], radius=fals_cfg["radius"],
                    seed=fals_cfg["seed"], dt=fals_cfg["dt"])
                stages[stage] = {
                    "status": "failed" if report.refuted else "passed",
                    "report": report.as_dict()}
                if csv_dir:
                    report_to_csv(report, os.path.join(csv_dir, "sweep.csv"))
        except STAGE_ERRORS as exc:
            stages[stage] = {"status": "error",
                             "error": {"type": type(exc).__name__,
                                       "message": str(exc)}}
            hard_failure = True
        timings[stage] = (time.perf_counter() - started
                          if config["record_timings"] else 0.0)

    verdict = _overall_verdict(config, stages)
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "versions": {"singcert": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "thread_pool_size": thread_pool_size(),
        "hypotheses": table,
        "stages": stages,
        "timings_s": timings,
        "verdict": verdict,
    }


def _overall_verdict(config: dict, stages: dict) -> str:
    if not config["checks"]:
        return "no checks requested"
    if any(st.get("status") == "error" for st in stages.values()):
        return "error"
    fals = stages.get("falsifier")
    if fals and fals.get("status") == "failed":
        return "refuted"
    proof = ("conditions", "coercivity", "certificate")
    if all(stages.get(s, {}).get("status") == "passed" for s in proof):
        return "optimality certified"
    requested = [s for s in config["checks"] if s != "falsifier"]
    if all(stages.get(s, {}).get("status") == "passed" for s in requested):
        return "checks passed, not certified"
    return "not certified"


def run_sweep(config: dict, parameter: str, values) -> list:
    """Re-run the pipeline across a one-parameter family of configs."""
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter: {parameter}")
    build, (*parents, key) = SWEEP_PARAMETERS[parameter]
    try:
        values = [build(v) for v in values]
    except ValueError as exc:
        raise ConfigError(f"bad value for sweep parameter {parameter}: "
                          f"{exc}") from exc
    variants = []
    for value in values:
        variant = copy.deepcopy(config)
        node = variant
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = value
        variants.append(variant)
    # a bad value is a config error before any run, not after the others
    for variant in variants:
        load_config(variant)
    return [run_check(variant) for variant in variants]


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        return val if np.isfinite(val) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def emit(report, path=None) -> str:
    """Serialize a report (or list of reports) to deterministic JSON."""
    text = json.dumps(_sanitize(report), sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text
