"""Tests for configuration handling, orchestration, and the CLI."""

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


def test_conditions_report_holds_the_structure_hypotheses():
    """The seven structure hypotheses sit beside the arc checks, and
    regularity_of_S is one of them."""
    conditions = run_check({"checks": ["conditions"]})["stages"]["conditions"]
    hypotheses = conditions["report"]["hypotheses"]
    assert len(hypotheses) == 7
    assert all(h["passed"] for h in hypotheses.values())
    assert hypotheses["regularity_of_S"]["rank"] == 5
    assert "regularity_of_S" not in conditions["report"]["checks"]


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


def test_csv_artifacts(tmp_path):
    csv_dir = tmp_path / "csv"
    run_check({**FAST, "output": {"csv_dir": str(csv_dir)}})
    for name in ("trajectory.csv", "det_trace.csv", "flow.csv", "sweep.csv"):
        assert (csv_dir / name).exists(), name


@pytest.mark.parametrize("space", ["euclidean", "sphere"])
def test_flow_csv_is_the_certificate_flow(tmp_path, space):
    """flow.csv holds the covectors of the certificate's x = 0 member."""
    config = {**FAST, "system": {"kind": "dubins", "space_form": space},
              "checks": ["certificate"],
              "output": {"csv_dir": str(tmp_path)}}
    run_check(config)
    config = load_config(config)
    system, chart, trajectory = pipeline._build_problem(config)
    cert = config["certificate"]
    grid = np.linspace(0.0, config["horizon"], cert["grid_points"])
    p = certificate_check(
        system, trajectory, chart, rho=cert["rho"], grid=grid,
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
    """Only the certificate's Sobol sample needs scipy.stats, which takes
    longer to import than the other stages take to run; importing the
    pipeline must not load it."""
    src_dir = os.path.dirname(os.path.dirname(pipeline.__file__))
    path = [src_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, singcert.pipeline; "
         "sys.exit('scipy.stats' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), timeout=120)
    assert done.returncode == 0
