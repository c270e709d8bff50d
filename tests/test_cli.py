"""Tests for configuration handling, orchestration, and the CLI."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest

from singcert import pipeline
from singcert.chart import OutOfChartError
from singcert.cli import main
from singcert.extremal import hogc_residual, s_residual
from singcert.geometry import ProjectionError, certificate_check
from singcert.pipeline import (
    CONFIG_SCHEMA,
    MAX_GALERKIN_K,
    MAX_GRID_STEPS,
    ConfigError,
    DEFAULT_CONFIG,
    emit,
    load_config,
    run_check,
    run_sweep,
)
from singcert.secondvar import assemble_lq, conjugate_point_test
from singcert.systems import build_dubins_system

FAST = {
    "certificate": {"n_samples": 16, "grid_points": 9},
    "falsifier": {"n_samples": 6},
    "galerkin_k": [8],
}

VERDICTS = {"optimality certified", "checks passed, not certified",
            "not certified", "refuted", "no checks requested", "error"}


def test_defaults_materialized():
    cfg = load_config({})
    assert cfg == DEFAULT_CONFIG
    cfg = load_config({"horizon": 2.0})
    assert cfg["horizon"] == 2.0
    assert cfg["dt"] == DEFAULT_CONFIG["dt"]
    assert cfg["falsifier"]["n_samples"] == 200


def test_config_schema_meets_its_meta_schema():
    # load_config validates against a validator built once, which does not
    # check the schema itself
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(
        CONFIG_SCHEMA)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        load_config({"horizonn": 1.0})
    with pytest.raises(ConfigError):
        load_config({"system": {"kind": "dubins", "frobnicate": 1}})
    with pytest.raises(ConfigError):
        load_config({"falsifier": {"samples": 10}})
    # the certificate's rho is the conjugate-point test's, not a setting
    with pytest.raises(ConfigError, match="rho"):
        load_config({"certificate": {"rho": 1.0}})


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        load_config({"dt": -0.1})
    with pytest.raises(ConfigError):
        load_config({"system": {"kind": "dubins", "N": 2}})
    with pytest.raises(ConfigError):
        load_config({"system": {"kind": "chart"}})
    # arrays the pipeline cannot run: no K, no rho, more than one K
    for doc in ({"galerkin_k": []}, {"rho_grid": []},
                {"galerkin_k": [8, 16]}):
        with pytest.raises(ConfigError):
            load_config(doc)
    # numbers Python's json reads but the pipeline cannot run
    for doc in ({"horizon": float("nan")}, {"horizon": float("inf")}):
        with pytest.raises(ConfigError):
            load_config(doc)
    # finite numbers whose step count overflows or exceeds MAX_GRID_STEPS
    for doc in ({"horizon": 1e308}, {"dt": 1e-300}, {"dt": 1e-7},
                {"falsifier": {"dt": 1e-7}}):
        with pytest.raises(ConfigError, match="grid steps"):
            load_config(doc)
    assert load_config({"dt": 2e-6, "falsifier": {"dt": 2e-6}})["dt"] == 2e-6
    # counts that would allocate without bound
    for section, key in (("certificate", "grid_points"),
                         ("certificate", "n_samples"),
                         ("falsifier", "n_samples")):
        for count in (10 ** 12, MAX_GRID_STEPS + 1):
            with pytest.raises(ConfigError):
                load_config({section: {key: count}})
    # seeds the random generators refuse
    for doc in ({"falsifier": {"seed": -1},
                 "checks": ["conditions", "falsifier"]},
                {"certificate": {"seed": -1}, "checks": ["certificate"]}):
        with pytest.raises(ConfigError):
            load_config(doc)
    # a needle window 2 radius^2 longer than the horizon
    with pytest.raises(ConfigError, match="radius"):
        load_config({"horizon": 0.01, "checks": ["conditions", "falsifier"]})
    with pytest.raises(ConfigError):
        run_sweep({}, "horizon", ["1e308"])
    with pytest.raises(ConfigError):
        run_sweep({}, "N", ["abc"])


def test_fixed_tolerances_and_lambda_radius_not_configurable():
    """The condition tolerances and the certificate's sample radius are
    fixed: setting them is a config error, so no config loosens a
    verdict."""
    for doc in ({"tolerances": {"equality": 1e9}},
                {"tolerances": {"sglc_min_margin": -1e9}}, {"tolerances": {}},
                {"certificate": {"lambda_radius": 1e30}},
                {"certificate": {"lambda_radius": 0.1}}):
        with pytest.raises(ConfigError):
            load_config(doc)
    report = run_check({**FAST, "checks": ["certificate"]})
    assert report["stages"]["certificate"]["report"]["lambda_radius"] == 0.1


def test_overflowed_rho_is_not_certified():
    """rho 1e308 overflows every det after t = 0: the conjugate-point test
    says not coercive and emits its ratio as null."""
    report = json.loads(emit(run_check(
        {"rho_grid": [1e308], "checks": ["conditions", "coercivity"]})))
    assert report["verdict"] == "not certified"
    conj = report["stages"]["coercivity"]["conjugate_point"]
    assert conj["verdict"] == "not coercive"
    assert conj["margin"] is None
    assert conj["refinements"] == [{"min_det_ratio": None, "rho": 1e308}]


def test_oversized_galerkin_k_rejected(monkeypatch):
    """A K whose finest Galerkin level cannot be held densely is a config
    error, directly and in a K sweep, before any run starts."""
    assert load_config({"galerkin_k": [MAX_GALERKIN_K]})["galerkin_k"] == \
        [MAX_GALERKIN_K]
    for k in (MAX_GALERKIN_K + 1, 100000):
        with pytest.raises(ConfigError):
            run_check({"galerkin_k": [k]})

    def no_run(config):
        raise AssertionError("a run started")

    monkeypatch.setattr(pipeline, "run_check", no_run)
    with pytest.raises(ConfigError):
        run_sweep({}, "K", [8, MAX_GALERKIN_K + 1])


def test_galerkin_width_bounded_by_n5(monkeypatch):
    """K = MAX_GALERKIN_K fits at N = 5 but not at N = 6 or 16, whose
    finest Galerkin level is wider; without the coercivity stage no
    Galerkin matrix is built and N = 16 runs at that K."""
    def dubins(n):
        return {"system": {"kind": "dubins", "N": n},
                "galerkin_k": [MAX_GALERKIN_K]}

    assert load_config(dubins(5))["system"]["N"] == 5
    for n in (6, 16):
        with pytest.raises(ConfigError, match="Galerkin"):
            load_config(dubins(n))
    assert load_config({**dubins(16), "checks": ["conditions"]})

    def no_run(config):
        raise AssertionError("a run started")

    monkeypatch.setattr(pipeline, "run_check", no_run)
    for values in ([5, 6], [5, 16]):
        with pytest.raises(ConfigError, match="Galerkin"):
            run_sweep(dubins(3), "N", values)


def test_stages_run_in_dependency_order_once():
    """The stages run in dependency order whatever the order of checks, so
    a failed condition battery skips the falsifier listed before it; a
    stage listed twice is a config error."""
    report = run_check({"system": {"kind": "dubins", "drift_sign": -1},
                        "checks": ["falsifier", "conditions"], **FAST})
    assert report["stages"]["conditions"]["status"] == "failed"
    assert report["stages"]["falsifier"] == {"status": "skipped"}
    assert report["verdict"] == "not certified"
    for checks in (["coercivity", "coercivity"],
                   ["conditions", "falsifier", "conditions"]):
        with pytest.raises(ConfigError):
            load_config({"checks": checks})


def test_config_error_is_one_line(tmp_path, capsys):
    """A schema violation reads as the JSON path and the message, one line,
    not a dump of the schema."""
    for doc, text in (({"checks": ["conditions", "conditions"]},
                       "$.checks: ['conditions', 'conditions'] has non-unique "
                       "elements"),
                      ({"falsifier": {"seed": -1}},
                       "$.falsifier.seed: -1 is less than the minimum of 0"),
                      ({"wat": 1}, "$: Additional properties are not allowed "
                                   "('wat' was unexpected)")):
        with pytest.raises(ConfigError) as caught:
            load_config(doc)
        assert str(caught.value) == text
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {text}\n"


def test_tiny_horizons_run(tmp_path, capsys):
    """Horizons down to the needle window run to a verdict: the window
    just fits, radius 0 has none, and without the falsifier stage there is
    no window to fit."""
    for doc in ({"horizon": 0.02, "checks": ["conditions", "falsifier"]},
                {"horizon": 0.01, "falsifier": {"radius": 0},
                 "checks": ["conditions", "falsifier"]},
                {"horizon": 0.01, "checks": ["conditions"]}):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["check", str(cfg_path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "checks passed, not certified"


def test_coercivity_needs_both_deciders():
    """Past the sphere's first conjugate time pi, Galerkin says not
    coercive while the conjugate-point test says coercive: the stage fails.
    Before it, both say coercive and the stage passes."""
    def coercivity(horizon):
        report = run_check({
            "system": {"kind": "dubins", "space_form": "sphere", "N": 3},
            "horizon": horizon, "checks": ["conditions", "coercivity"]})
        return report["stages"]["coercivity"]

    past = coercivity(3.3)
    assert not past["verdicts_agree"]
    assert past["galerkin"]["margin"] < 0 < past["conjugate_point"]["margin"]
    assert past["status"] == "failed"
    # the disagreement names both verdicts and both margins
    gal, conj = past["galerkin"], past["conjugate_point"]
    assert past["reason"] == (
        f"the deciders disagree: Galerkin says not coercive "
        f"(margin {gal['margin']:.6g}), the conjugate-point test says "
        f"coercive (margin {conj['margin']:.6g} at rho {conj['rho']:g})")
    assert gal["margin"] == pytest.approx(-0.0096, abs=1e-4)
    assert conj["margin"] == pytest.approx(0.229, abs=1e-3)
    # no rho enters the Galerkin form, so its report carries none
    assert "rho" not in gal and "rho" in conj
    before = coercivity(3.0)
    assert before["verdicts_agree"]
    assert "reason" not in before
    assert before["galerkin"]["verdict"] == "coercive"
    assert before["status"] == "passed"


def test_empty_checks_is_echo_only():
    report = run_check({"checks": []})
    assert report["verdict"] == "no checks requested"
    assert report["stages"] == {}
    assert report["config"]["system"]["N"] == 3


def test_flipped_drift_fails_conditions_and_skips(tmp_path):
    report = run_check({"system": {"kind": "dubins", "drift_sign": -1},
                        **FAST})
    assert report["stages"]["conditions"]["status"] == "failed"
    names = report["stages"]["conditions"]["report"]["checks"]
    assert not names["sglc"]["passed"]
    for later in ("coercivity", "certificate", "falsifier"):
        assert report["stages"][later]["status"] == "skipped"
    assert report["verdict"] == "not certified"


def test_report_holds_the_hypotheses_whatever_the_checks():
    """Every run reports its ten hypotheses at the top level, each with its
    bound, whichever stages it asks for; the conditions stage reports the
    arc's checks alone."""
    bounds = {"closure_so_N": 1e-12, "derived_dimension": 0.0,
              "frame_basis_rank": 0.0, "double_bracket_drift": 1e-12,
              "drift_family_commutes": 1e-12, "drift_commutes_derived": 1e-12,
              "regularity_of_S": 1e-9, "chart_axes_single_plane": 1e-12,
              "fields_are_e1_wedges": 0.0,
              "annihilator_reads_first_column": 6 * 16 * np.finfo(float).eps}
    for checks in (["conditions"], ["certificate"], ["falsifier"], []):
        report = run_check({**FAST, "checks": checks})
        hypotheses = report["hypotheses"]
        assert {k: h["bound"] for k, h in hypotheses.items()} == bounds
        assert all(h["passed"] for h in hypotheses.values())
        assert hypotheses["regularity_of_S"]["rank"] == 5
    conditions = run_check({"checks": ["conditions"]})["stages"]["conditions"]
    assert set(conditions["report"]) == {"passed", "sglc_margin", "checks"}


def test_broken_hypothesis_runs_no_stage(monkeypatch, tmp_path, capsys):
    """A system whose A_1 has a (1, 1) entry is no wedge with e1: the run
    reports the broken hypotheses, and every requested stage ends in an
    error whose reason names each with its residual, bound and any rank
    or dimension, in a report the CLI writes with exit status 1."""
    def bent(space_form, n):
        system = build_dubins_system(space_form, n)
        a1 = system.controlled[0].copy()
        a1[1, 1] = 0.1
        return dataclasses.replace(
            system, controlled=(a1, *system.controlled[1:]))

    monkeypatch.setattr(pipeline, "build_dubins_system", bent)
    report = run_check(FAST)
    broken = {k: h for k, h in report["hypotheses"].items()
              if not h["passed"]}
    assert broken["fields_are_e1_wedges"]["residual"] == 0.1
    reason = "broken hypotheses: " + "; ".join(
        name + " (" + ", ".join(f"{k} {v:.6g}" for k, v in h.items()
                                if k != "passed") + ")"
        for name, h in broken.items())
    assert "fields_are_e1_wedges (residual 0.1, bound 0)" in reason
    assert "closure_so_N (residual 0.2, bound 1e-12, dimension 3, " \
        "expected_dimension 3)" in reason
    assert report["stages"] == {stage: {"status": "error", "reason": reason}
                                for stage in pipeline.STAGES}
    assert report["verdict"] == "error"
    assert set(report["timings_s"].values()) == {0.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**FAST, "checks": ["falsifier"]}))
    assert main(["check", str(cfg_path)]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["stages"] == {
        "falsifier": {"status": "error", "reason": reason}}


def test_full_run_certified():
    report = run_check(FAST)
    assert report["verdict"] == "optimality certified"
    assert report["stages"]["coercivity"]["verdicts_agree"]
    assert set(report["timings_s"]) == set(report["config"]["checks"])
    assert all(v == 0.0 for v in report["timings_s"].values())


def test_report_byte_deterministic():
    a = emit(run_check(FAST))
    b = emit(run_check(FAST))
    assert a == b


def test_emit_round_trip(tmp_path):
    report = run_check({"checks": ["conditions"]})
    path = tmp_path / "report.json"
    text = emit(report, path)
    assert path.read_text() == text
    assert json.loads(text) == json.loads(emit(report))


def test_emit_arrays_of_any_rank():
    """A 0-d array emits its scalar, and a non-finite entry of an n-d array
    emits null."""
    assert json.loads(emit({"x": np.array(1.5)})) == {"x": 1.5}
    assert json.loads(emit({"x": np.array([[1.0, np.inf], [2.0, 3.0]])})) \
        == {"x": [[1.0, None], [2.0, 3.0]]}


def test_csv_artifacts(tmp_path):
    csv_dir = tmp_path / "csv"
    run_check({**FAST, "output": {"csv_dir": str(csv_dir)}})
    for name in ("trajectory.csv", "det_trace.csv", "flow.csv", "sweep.csv"):
        assert (csv_dir / name).exists(), name


@pytest.mark.parametrize("space", ["euclidean", "sphere"])
def test_flow_csv_is_the_certificate_flow(tmp_path, space):
    """flow.csv holds the covectors of the certificate's x = 0 member. A
    certificate-only run takes its rho from its own conjugate-point test."""
    config = {**FAST, "system": {"kind": "dubins", "space_form": space},
              "checks": ["certificate"],
              "output": {"csv_dir": str(tmp_path)}}
    report = run_check(config)
    config = load_config(config)
    system, chart, trajectory, _ = pipeline._build_problem(config)
    rho = conjugate_point_test(assemble_lq(system, trajectory, chart),
                               rho_grid=config["rho_grid"]).rho
    assert report["stages"]["certificate"]["report"]["rho"] == rho
    assert report["verdict"] == "checks passed, not certified"
    cert = config["certificate"]
    grid = np.linspace(0.0, config["horizon"], cert["grid_points"])
    p = certificate_check(
        system, trajectory, chart, rho=rho, grid=grid,
        n_samples=cert["n_samples"], seed=cert["seed"]).covectors
    rows = np.loadtxt(tmp_path / "flow.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 0], grid)
    assert np.array_equal(rows[:, 1:-2], p.reshape(grid.size, -1))
    assert np.array_equal(rows[:, -2], hogc_residual(system, p))
    assert np.array_equal(rows[:, -1], s_residual(system, p))


def test_sweep_empty_values():
    assert run_sweep({}, "N", []) == []


def test_sweep_horizon():
    reports = run_sweep({**FAST, "checks": ["coercivity"]},
                        "horizon", [0.5, 1.0])
    assert len(reports) == 2
    for rep, t in zip(reports, (0.5, 1.0)):
        assert rep["config"]["horizon"] == t
        assert rep["stages"]["coercivity"]["status"] == "passed"
        assert rep["stages"]["coercivity"]["galerkin"]["margin"] > 0


def test_sweep_unknown_parameter():
    with pytest.raises(ConfigError):
        run_sweep({}, "coolness", [1])
    # rho is measured by the conjugate-point test, so no sweep sets it
    with pytest.raises(ConfigError):
        run_sweep({}, "rho", [1])
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "config.json", "--param", "rho", "--values", "1"])
    assert exc.value.code == 2


def test_cli_dubins_emit_config(capsys):
    code = main(["dubins", "--N", "4", "--space", "sphere", "--emit-config"])
    out = capsys.readouterr().out
    assert code == 0
    cfg = json.loads(out)
    assert cfg["system"]["N"] == 4
    assert cfg["system"]["space_form"] == "sphere"


def test_cli_check_certified(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**FAST, "checks": ["conditions"]}))
    code = main(["check", str(cfg_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 2    # conditions alone do not certify optimality
    assert report["stages"]["conditions"]["status"] == "passed"
    assert report["verdict"] == "checks passed, not certified"


def test_cli_check_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(FAST))
    assert main(["check", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**FAST,
                               "system": {"kind": "dubins",
                                          "drift_sign": -1}}))
    assert main(["check", str(bad)]) == 2
    capsys.readouterr()


def test_cli_operational_errors(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.json")]) == 1
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    assert main(["check", str(junk)]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"wat": 1}))
    assert main(["check", str(unknown)]) == 1
    capsys.readouterr()


def test_cli_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**FAST, "checks": ["coercivity"]}))
    code = main(["sweep", str(cfg_path), "--param", "K", "--values", "8,16"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 2    # coercivity alone does not certify
    assert len(reports) == 2
    assert [r["config"]["galerkin_k"] for r in reports] == [[8], [16]]


def test_verdict_hierarchy_mixed_stages():
    report = run_check({**FAST, "checks": ["conditions", "coercivity"]})
    assert report["verdict"] == "checks passed, not certified"
    full = run_check(FAST)
    assert full["verdict"] == "optimality certified"


@pytest.mark.parametrize(
    "exc", [OutOfChartError, ProjectionError, np.linalg.LinAlgError])
def test_stage_error_contained(monkeypatch, tmp_path, capsys, exc):
    def broken(*args, **kwargs):
        raise exc("numerical breakdown")

    monkeypatch.setattr(pipeline, "certificate_check", broken)
    cfg = {**FAST, "checks": ["conditions", "certificate", "falsifier"]}
    report = run_check(cfg)
    assert report["stages"]["conditions"]["status"] == "passed"
    assert report["stages"]["certificate"] == {
        "status": "error",
        "error": {"type": exc.__name__, "message": "numerical breakdown"}}
    assert report["stages"]["falsifier"]["status"] == "skipped"
    assert report["verdict"] == "error"

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["check", str(cfg_path)]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "error"
    code = main(["sweep", str(cfg_path), "--param", "K", "--values", "8"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)[0]["verdict"] == "error"


def test_non_finite_reference_arc_is_an_error(tmp_path, capsys):
    """A hyperbolic arc of length 800 overflows: the conditions stage ends
    in an error naming the non-finite arc, with no numpy warning."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "system": {"kind": "dubins", "space_form": "hyperbolic", "N": 3},
        "horizon": 800.0, "dt": 100.0, "checks": ["conditions"]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", str(cfg_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "error"
    error = report["stages"]["conditions"]["error"]
    assert error["type"] == "LinAlgError"
    assert error["message"].startswith("reference arc is not finite at t =")


@pytest.mark.parametrize("stage", ["coercivity", "certificate", "falsifier"])
def test_non_finite_reference_arc_is_an_error_in_every_stage(stage):
    """Every stage that reads the arc checks it first: without the
    conditions stage, the overflowed arc is still named, with no numpy
    warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_check({
            "system": {"kind": "dubins", "space_form": "hyperbolic", "N": 3},
            "horizon": 800.0, "dt": 100.0, "checks": [stage]})
    assert report["verdict"] == "error"
    error = report["stages"][stage]["error"]
    assert error["type"] == "LinAlgError"
    assert error["message"].startswith("reference arc is not finite at t =")


def test_huge_rho_certificate_is_a_projection_error_without_warnings(
        tmp_path, capsys):
    """A certificate-only run at rho 1e308 lifts its seeds past the float
    range: the stage ends in the ProjectionError that names c(p), exit
    status 1, with no numpy warning and nothing on stderr."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rho_grid": [1e308],
                                    "checks": ["certificate"]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", str(cfg_path)]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    report = json.loads(out.out)
    assert report["stages"]["certificate"]["error"] == {
        "type": "ProjectionError",
        "message": "projection onto S undefined: c(p) is zero or not finite"}


def test_long_hyperbolic_certificate_is_an_error_without_warnings():
    """At H = 20 the arc is finite, but the certificate's series log
    diverges: the stage ends in an error, with no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_check({
            "system": {"kind": "dubins", "space_form": "hyperbolic", "N": 3},
            "horizon": 20.0, "checks": ["certificate"]})
    assert report["verdict"] == "error"
    assert report["stages"]["certificate"]["error"]["type"] == "LinAlgError"


def test_long_hyperbolic_jacobi_flow_is_coercive_without_warnings(
        tmp_path, capsys):
    """At H = 30 the closed-form Jacobi flow stays finite: the
    conjugate-point test says coercive with margin 1 at rho 2^-6, beside a
    Galerkin form lost to roundoff: its endpoint constraint carries
    e^{-H ad}, whose entries reach e^30, and its margins sit at roundoff
    size under the floor, which its reason names. So the deciders
    disagree; the run is not certified, with exit status 2 and nothing on
    stderr."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "system": {"kind": "dubins", "space_form": "hyperbolic", "N": 3},
        "horizon": 30.0, "checks": ["coercivity"]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    stage = report["stages"]["coercivity"]
    conj, gal = stage["conjugate_point"], stage["galerkin"]
    assert report["verdict"] == "not certified"
    assert conj["verdict"] == "coercive"
    assert conj["margin"] == 1.0 and conj["rho"] == 2.0 ** -6
    assert "reason" not in conj
    assert gal["verdict"] == "not coercive" and abs(gal["margin"]) < 1e-9
    assert gal["reason"].startswith("the margin ")
    assert gal["reason"].endswith(
        f" at K = 16 is under the floor {gal['floor']:.6g}")
    assert not stage["verdicts_agree"]
    assert stage["reason"].startswith("the deciders disagree: Galerkin says "
                                      "not coercive")


@pytest.mark.parametrize("horizon", [15.0, 20.0])
def test_long_hyperbolic_arcs_are_coercive_by_both_deciders(horizon):
    """At H = 15 and 20 the exact moving-frame Galerkin form settles
    (H^2 times each level is 1.2 to 1.4, over the floor) and agrees with the
    conjugate-point test: a coercivity-only run says checks passed, not
    certified, with no warning and no reason. The Gauss-quadrature form
    these arcs had before lost its levels to roundoff and failed the
    settle test, so the verdict was not certified: an arithmetic fix, with
    no floor or tolerance moved."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = json.loads(emit(run_check({
            "system": {"kind": "dubins", "space_form": "hyperbolic", "N": 3},
            "horizon": horizon, "checks": ["coercivity"]})))
    stage = report["stages"]["coercivity"]
    gal, conj = stage["galerkin"], stage["conjugate_point"]
    assert report["verdict"] == "checks passed, not certified"
    assert gal["verdict"] == conj["verdict"] == "coercive"
    assert stage["verdicts_agree"] and "reason" not in stage
    assert "reason" not in gal
    margins = [level["margin"] for level in gal["refinements"]]
    assert all(1.0 < mg * horizon ** 2 < 1.5 for mg in margins)


def test_overflowing_jacobi_flow_is_not_coercive_without_warnings():
    """At H = 100 the hyperbolic arc is finite, but the dets of its Jacobi
    flow outgrow the floats: the conjugate-point test says not coercive,
    with no ratio and no numpy warning, and its reason names the grid time
    by which every rho's det has overflowed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = json.loads(emit(run_check({
            "system": {"kind": "dubins", "space_form": "hyperbolic", "N": 3},
            "horizon": 100.0, "dt": 0.5, "checks": ["coercivity"]})))
    conj = report["stages"]["coercivity"]["conjugate_point"]
    assert report["verdict"] == "not certified"
    assert conj["verdict"] == "not coercive"
    assert conj["margin"] is None
    assert all(r["min_det_ratio"] is None for r in conj["refinements"])
    assert conj["reason"] == ("every rho's det X_rho has overflowed by "
                              "t = 87.5, the first grid time where that "
                              "holds")


@pytest.mark.parametrize("space", ["sphere", "hyperbolic"])
def test_flipped_drift_coercivity_is_an_error(tmp_path, capsys, space):
    """The flipped drift is not an extremal, and on the curved forms its
    Jacobi generator breaks M^4 = lam M^2: a coercivity-only run ends in a
    stage error naming that premise, exit status 1, nothing on stderr."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "system": {"kind": "dubins", "space_form": space, "N": 4,
                   "drift_sign": -1},
        "checks": ["coercivity"]}))
    assert main(["check", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    assert report["verdict"] == "error"
    error = report["stages"]["coercivity"]["error"]
    assert error["type"] == "LinAlgError"
    assert error["message"].startswith("premise M^4 = lam M^2 ")


@pytest.mark.parametrize("horizon, dt", [(60.0, None), (355.0, 8.0)])
def test_long_hyperbolic_certificate_logm_warnings_stay_inside(horizon, dt):
    """At H = 60, and at H = 355 with dt 8, scipy's logm would warn (an
    inaccurate result, a nearly singular input) if the chart inversion
    came first: the certificate takes its series logs first, and the
    stage ends in the series log's error, with no warning."""
    config = {"system": {"kind": "dubins", "space_form": "hyperbolic", "N": 3},
              "horizon": horizon, "checks": ["certificate"]}
    if dt is not None:
        config["dt"] = dt
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_check(config)
    assert report["verdict"] == "error"
    assert report["stages"]["certificate"]["error"] == {
        "type": "LinAlgError",
        "message": "matrix logarithm series did not converge"}


def test_sphere_run_ends_in_verdict():
    """A curved space form yields a report, never a traceback."""
    report = run_check({
        "system": {"kind": "dubins", "space_form": "sphere", "N": 3},
        "galerkin_k": [4],
        "certificate": {"n_samples": 8, "grid_points": 5},
        "checks": ["conditions", "coercivity", "certificate"]})
    assert report["verdict"] in VERDICTS - {"error"}
    for entry in report["stages"].values():
        assert entry["status"] in {"passed", "failed", "skipped"}


def test_pipeline_import_leaves_scipy_stats_unloaded():
    """scipy.stats takes longer to import than the stages take to run, and
    no stage needs it: the certificate samples with numpy's seeded
    generator. Neither importing the pipeline nor a default run_check,
    certificate included, loads it."""
    src_dir = os.path.dirname(os.path.dirname(pipeline.__file__))
    path = [src_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, singcert.pipeline; "
         "loaded = 'scipy.stats' in sys.modules; "
         "report = singcert.pipeline.run_check({}); "
         "assert report['stages']['certificate']['status'] == 'passed'; "
         "sys.exit(loaded or 'scipy.stats' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), timeout=120)
    assert done.returncode == 0


def test_certificate_sample_of_any_size_leaves_stderr_empty(tmp_path,
                                                           capsys):
    """A certificate sample of 100 points, not a power of 2, runs to its
    verdict with no warning and nothing on stderr."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {**FAST, "certificate": {"n_samples": 100, "grid_points": 9}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", str(cfg_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["stages"]["certificate"]["report"][
        "n_samples"] == 100
