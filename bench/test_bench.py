"""The benchmark's own tests, at smoke sizes.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert entry["unit"] == run.unit_of(entry["name"]), entry
    assert all(0 < e["bound"] <= 0.25 for e in SPEC["end_to_end"])
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_untraced_smoke_reports_end_to_end_metrics():
    result = _result(_bench("--workload", "euclid-certify", "--smoke",
                            "--seed", "0", "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_smoke_isolates_layers(workload, tmp_path):
    # on a seed other than 0: verdicts and margins must not depend on it;
    # tracing must not change the emitted reports; each layer records
    # calls exactly where the workload exercises it
    out = tmp_path / "result.json"
    result = _result(_bench("--workload", workload, "--smoke", "--seed", "7",
                            "--seconds", "1", "--trace", "1",
                            "--out", str(out)))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {e["name"] for e in SPEC["per_layer"]}
    full = json.loads(out.read_text())
    assert full["problems"] == []
    assert full["isolation_failures"] == [] and full["absent_layers"] == []
    bypassed = workloads.WORKLOADS[workload].bypassed
    assert bypassed < set(tracer.layer_names())
    for name in tracer.layer_names():
        assert (full["metrics"][f"{name}.calls"] == 0) == (name in bypassed)
    labels = [label for call in workloads.WORKLOADS[workload].calls(7, True)
              for label in call.labels()]
    assert list(full["stages_by_check"]) == labels
    for row in full["stages_by_check"].values():
        assert sum(row[s] for s in tracer.STAGES) == pytest.approx(row["total"])
    assert "trace.overhead_s" in full["metrics"]


def test_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "euclid-certify", "--smoke", "--seconds", "1",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_oracle_flags_verdict_and_margin_drift():
    reference = workloads.load_reference()
    label = "euclidean N=3"
    good = reference[label]["margins"]
    report = {"verdict": reference[label]["verdict"], "stages": {
        "coercivity": {"galerkin": {"margin": good["galerkin"]},
                       "conjugate_point": {"margin": good["conjugate_point"]}},
        "certificate": {"report": {
            "min_singular_value": good["certificate_min_sv"]}}}}
    assert workloads.problems(label, report, reference) == []
    report["stages"]["coercivity"]["galerkin"]["margin"] *= 1 + 1e-8
    report["verdict"] = "refuted"
    found = workloads.problems(label, report, reference)
    assert len(found) == 2


def test_self_time_and_stage_attribution():
    probe = tracer.Tracer()
    leaf = probe.wrap("algebra.pairing", lambda: sum(range(20000)))
    stage = probe.wrap("geometry.certificate_check", lambda: leaf() + leaf())
    top = probe.wrap("pipeline.run_check", lambda: stage() + leaf())
    top()
    summary = probe.summary()
    layers = summary["layers"]
    assert layers["algebra.pairing.calls"] == 3
    assert layers["pipeline.run_check.s"] == pytest.approx(
        layers["pipeline.run_check.self_s"]
        + layers["geometry.certificate_check.s"]
        + summary["by_stage"]["problem"]["algebra.pairing.s"])
    assert summary["by_stage"]["certificate"]["algebra.pairing.calls"] == 2
    assert summary["by_stage"]["problem"]["algebra.pairing.calls"] == 1
    (row,) = summary["checks"]
    assert row["total"] == pytest.approx(sum(row[s] for s in tracer.STAGES))
