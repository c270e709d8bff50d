"""Tests for needle variations, the scaling check, and the competitor sweep."""

import numpy as np
import pytest
from scipy.linalg import expm

from singcert.chart import dubins_adapted_chart
from singcert.controls import CallableControl, ZeroControl
from singcert.extremal import adjoint_trajectory, dubins_initial_covector
from singcert.falsifier import (
    TargetSpec,
    competitor_sweep,
    driftless_endpoint,
    driftless_scaling_check,
    needle_variation,
    report_to_csv,
)
from singcert.systems import build_dubins_system


@pytest.fixture(scope="module")
def dub3():
    return build_dubins_system("euclidean", 3)


@pytest.fixture(scope="module")
def extremal3(dub3):
    p0 = dubins_initial_covector(dub3)
    return adjoint_trajectory(dub3, p0, ZeroControl(dub3.m),
                              np.linspace(0.0, 1.0, 65))


def zero_u(m):
    return lambda s: np.zeros(m)


def test_needle_zero_tvec_is_reference(dub3):
    needle = needle_variation(zero_u(dub3.m), 0.3, np.zeros(dub3.R), 0.1,
                              horizon=1.0, m=dub3.m)
    for s in (0.0, 0.3, 0.305, 0.31, 0.8):
        assert np.max(np.abs(needle(s))) == 0.0


def test_needle_supported_on_window(dub3):
    eps = 0.1
    needle = needle_variation(zero_u(dub3.m), 0.3, 0.05 * np.ones(dub3.R),
                              eps, horizon=1.0, m=dub3.m)
    dt = 1e-6
    assert np.max(np.abs(needle(0.3 - dt))) == 0.0
    assert np.max(np.abs(needle(0.3 + 2 * eps ** 2 + dt))) == 0.0
    assert np.max(np.abs(needle(0.3 + eps ** 2))) > 0.0


def test_needle_l1_norm_scales_linearly(dub3):
    t_vec = np.array([0.04, -0.03, 0.05])
    grid = np.linspace(0.0, 2.0, 60001)
    base = np.array([needle_variation(zero_u(dub3.m), 0.0, t_vec, 1.0,
                                      horizon=10.0, m=dub3.m).overlay_base(s)
                     for s in grid])
    base_l1 = np.trapezoid(np.abs(base).sum(axis=1), grid)
    for eps in (0.2, 0.1):
        needle = needle_variation(zero_u(dub3.m), 0.0, t_vec, eps,
                                  horizon=10.0, m=dub3.m)
        win = np.linspace(0.0, 2.0 * eps ** 2, 60001)
        vals = np.array([needle.overlay(s) for s in win])
        l1 = np.trapezoid(np.abs(vals).sum(axis=1), win)
        assert l1 == pytest.approx(eps * base_l1, rel=1e-3)


def test_needle_window_must_fit(dub3):
    with pytest.raises(ValueError):
        needle_variation(zero_u(dub3.m), 0.99, np.zeros(dub3.R), 0.2,
                         horizon=1.0, m=dub3.m)


def test_driftless_endpoint_matches_exponential_product(dub3):
    """Composition oracle: the word flow is the unrolled exp product."""
    t_vec = np.array([0.06, -0.04, 0.05])
    t_bar = np.array([0.02, 0.02, 0.02])
    needle = needle_variation(zero_u(dub3.m), 0.0, t_vec, 0.2,
                              horizon=10.0, m=dub3.m, t_bar=t_bar)
    eps = 0.2
    end = driftless_endpoint(dub3, needle, eps=eps)
    expect = np.eye(dub3.d)
    chans = needle.channels
    for k in range(3):
        expect = expect @ expm(eps * t_vec[k] * dub3.controlled[chans[k]])
    for k in range(2, -1, -1):
        expect = expect @ expm(-eps * t_bar[k] * dub3.controlled[chans[k]])
    assert np.max(np.abs(end - expect)) <= 1e-9


def test_scaling_check_bracket_word(dub3):
    """Displacement along the [A1, A2] word scales at fitted order >= 1.8."""
    report = driftless_scaling_check(dub3, np.array([0.05, 0.05, 0.04]),
                                     t_bar=np.array([0.02, 0.03, 0.02]))
    assert report["passed"]
    assert report["beta"] >= 1.8


def test_scaling_check_abelian_exact(dub3):
    """A single active channel commutes with itself: discrepancy zero."""
    t_vec = np.array([0.05, 0.0, 0.03])
    report = driftless_scaling_check(dub3, t_vec,
                                     t_bar=np.array([0.02, 0.0, 0.01]))
    # channels for R = 3 cycle (1, 2, 1): zero out channel 2 entries
    assert report["beta"] == np.inf
    for row in report["samples"]:
        assert row["discrepancy"] <= 1e-12


def test_scaling_check_rejects_tiny_eps(dub3):
    with pytest.raises(ValueError):
        driftless_scaling_check(dub3, np.zeros(dub3.R), eps_grid=[1e-4])


def test_target_spec_reference_endpoint(dub3, extremal3):
    q_f = extremal3.points[-1].q
    target = TargetSpec(dub3, q_f, dubins_adapted_chart(dub3))
    assert target.residual(q_f) <= 1e-14
    # displacing along a controlled direction stays on the orbit
    moved = q_f @ expm(0.2 * dub3.controlled[0])
    assert target.residual(moved) <= 1e-10
    # displacing along the drift leaves it
    off = q_f @ expm(0.05 * dub3.drift)
    assert target.residual(off) >= 0.04


def test_sweep_radius_zero_arrives_at_horizon(dub3, extremal3):
    target = TargetSpec(dub3, extremal3.points[-1].q, dubins_adapted_chart(dub3))
    report = competitor_sweep(dub3, extremal3, target, n_samples=3,
                              radius=0.0, seed=5)
    assert report.verdict == "no counterexample"
    assert report.min_arrival == pytest.approx(extremal3.horizon, abs=1e-12)


def test_sweep_certified_arc_not_falsified(dub3, extremal3):
    target = TargetSpec(dub3, extremal3.points[-1].q, dubins_adapted_chart(dub3))
    report = competitor_sweep(dub3, extremal3, target, n_samples=60,
                              radius=0.1, seed=7)
    assert report.verdict == "no counterexample"
    assert report.min_arrival >= extremal3.horizon - 1e-6


def test_sweep_deterministic(dub3, extremal3):
    target = TargetSpec(dub3, extremal3.points[-1].q, dubins_adapted_chart(dub3))
    a = competitor_sweep(dub3, extremal3, target, n_samples=12, radius=0.1,
                         seed=9)
    b = competitor_sweep(dub3, extremal3, target, n_samples=12, radius=0.1,
                         seed=9)
    assert a.as_dict() == b.as_dict()


def test_sweep_refutes_manufactured_loop(dub3):
    """A full-circle reference returns to its start, so the target orbit
    is reached immediately; the sweep must refute it."""
    u_loop = CallableControl(lambda s: np.array([1.0, 0.0]), dub3.m)
    grid = np.linspace(0.0, 2.0 * np.pi, 129)
    p0 = dubins_initial_covector(dub3)
    traj = adjoint_trajectory(dub3, p0, u_loop, grid)
    assert np.max(np.abs(traj.points[-1].q - np.eye(dub3.d))) <= 1e-6
    target = TargetSpec(dub3, traj.points[-1].q, dubins_adapted_chart(dub3))
    report = competitor_sweep(dub3, traj, target, n_samples=9, radius=0.1,
                              seed=11)
    assert report.refuted
    assert report.witness is not None
    assert report.witness["arrival"] < traj.horizon - 1e-6


def test_report_csv(tmp_path, dub3, extremal3):
    target = TargetSpec(dub3, extremal3.points[-1].q, dubins_adapted_chart(dub3))
    report = competitor_sweep(dub3, extremal3, target, n_samples=6,
                              radius=0.05, seed=3)
    path = tmp_path / "sweep.csv"
    report_to_csv(report, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 7
    assert lines[0] == "sample,family,arrival,graph_distance"
