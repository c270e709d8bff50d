"""Tests for needle variations, the scaling check, and the competitor sweep."""

import numpy as np
import pytest
from scipy.linalg import expm, logm
from scipy.optimize import brentq

from singcert.chart import dubins_adapted_chart
from singcert.extremal import (
    adjoint_trajectory,
    dubins_initial_covector,
    reference_flow,
)
from singcert.falsifier import (
    TARGET_TOL,
    TargetSpec,
    _integration_grid,
    _quick_log,
    _sample_competitors,
    _stacked_flows,
    competitor_sweep,
    driftless_endpoint,
    driftless_scaling_check,
    graph_distance,
    needle_variation,
    report_to_csv,
)
from singcert.numerics import rk4_flow
from singcert.pipeline import _build_problem, load_config
from singcert.systems import build_dubins_system


@pytest.fixture(scope="module")
def dub3():
    return build_dubins_system("euclidean", 3)


@pytest.fixture(scope="module")
def extremal3(dub3):
    p0 = dubins_initial_covector(dub3)
    return adjoint_trajectory(dub3, p0, np.linspace(0.0, 1.0, 65))


def test_needle_zero_tvec_is_reference(dub3):
    needle = needle_variation(0.3, np.zeros(dub3.R), 0.1, horizon=1.0,
                              m=dub3.m)
    for s in (0.0, 0.3, 0.305, 0.31, 0.8):
        assert np.max(np.abs(needle.overlay(s))) == 0.0


def test_needle_supported_on_window(dub3):
    eps = 0.1
    needle = needle_variation(0.3, 0.05 * np.ones(dub3.R), eps, horizon=1.0,
                              m=dub3.m)
    dt = 1e-6
    assert np.max(np.abs(needle.overlay(0.3 - dt))) == 0.0
    assert np.max(np.abs(needle.overlay(0.3 + 2 * eps ** 2 + dt))) == 0.0
    assert np.max(np.abs(needle.overlay(0.3 + eps ** 2))) > 0.0


def test_needle_l1_norm_scales_linearly(dub3):
    t_vec = np.array([0.04, -0.03, 0.05])
    grid = np.linspace(0.0, 2.0, 60001)
    base = np.array([needle_variation(0.0, t_vec, 1.0, horizon=10.0,
                                      m=dub3.m).overlay_base(s)
                     for s in grid])
    base_l1 = np.trapezoid(np.abs(base).sum(axis=1), grid)
    for eps in (0.2, 0.1):
        needle = needle_variation(0.0, t_vec, eps, horizon=10.0, m=dub3.m)
        win = np.linspace(0.0, 2.0 * eps ** 2, 60001)
        vals = np.array([needle.overlay(s) for s in win])
        l1 = np.trapezoid(np.abs(vals).sum(axis=1), win)
        assert l1 == pytest.approx(eps * base_l1, rel=1e-3)


def test_needle_window_must_fit(dub3):
    with pytest.raises(ValueError):
        needle_variation(0.99, np.zeros(dub3.R), 0.2, horizon=1.0, m=dub3.m)


def test_driftless_endpoint_matches_exponential_product(dub3):
    """Composition oracle: the word flow is the unrolled exp product."""
    t_vec = np.array([0.06, -0.04, 0.05])
    t_bar = np.array([0.02, 0.02, 0.02])
    needle = needle_variation(0.0, t_vec, 0.2, horizon=10.0, m=dub3.m,
                              t_bar=t_bar)
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
    q_f = extremal3.q[-1]
    target = TargetSpec(q_f, dubins_adapted_chart(dub3))
    assert target.residual(q_f) <= 1e-14
    # displacing along a controlled direction stays on the orbit
    moved = q_f @ expm(0.2 * dub3.controlled[0])
    assert target.residual(moved) <= 1e-10
    # displacing along the drift leaves it
    off = q_f @ expm(0.05 * dub3.drift)
    assert target.residual(off) >= 0.04


def test_sweep_radius_zero_arrives_at_horizon(dub3, extremal3):
    target = TargetSpec(extremal3.q[-1], dubins_adapted_chart(dub3))
    report = competitor_sweep(dub3, extremal3, target, n_samples=3,
                              radius=0.0, seed=5)
    assert report.verdict == "no counterexample"
    assert report.min_arrival == pytest.approx(extremal3.horizon, abs=1e-12)


def test_sweep_certified_arc_not_falsified(dub3, extremal3):
    target = TargetSpec(extremal3.q[-1], dubins_adapted_chart(dub3))
    report = competitor_sweep(dub3, extremal3, target, n_samples=60,
                              radius=0.1, seed=7)
    assert report.verdict == "no counterexample"
    assert report.min_arrival >= extremal3.horizon - 1e-6


def test_sweep_deterministic(dub3, extremal3):
    target = TargetSpec(extremal3.q[-1], dubins_adapted_chart(dub3))
    a = competitor_sweep(dub3, extremal3, target, n_samples=12, radius=0.1,
                         seed=9)
    b = competitor_sweep(dub3, extremal3, target, n_samples=12, radius=0.1,
                         seed=9)
    assert a.as_dict() == b.as_dict()


def test_sweep_refutes_manufactured_loop():
    """The sphere's drift orbit is a closed geodesic: over 2 pi it returns
    to its start, so the target orbit is reached immediately and the sweep
    must refute it."""
    sph3 = build_dubins_system("sphere", 3)
    grid = np.linspace(0.0, 2.0 * np.pi, 129)
    traj = adjoint_trajectory(sph3, dubins_initial_covector(sph3), grid)
    assert np.max(np.abs(traj.q[-1] - np.eye(sph3.d))) <= 1e-12
    target = TargetSpec(traj.q[-1], dubins_adapted_chart(sph3))
    report = competitor_sweep(sph3, traj, target, n_samples=9, radius=0.1,
                              seed=11)
    assert report.refuted
    assert report.witness is not None
    assert report.witness["arrival"] < traj.horizon - 1e-6


def test_report_csv(tmp_path, dub3, extremal3):
    target = TargetSpec(extremal3.q[-1], dubins_adapted_chart(dub3))
    report = competitor_sweep(dub3, extremal3, target, n_samples=6,
                              radius=0.05, seed=3)
    path = tmp_path / "sweep.csv"
    report_to_csv(report, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 7
    assert lines[0] == "sample,family,arrival,graph_distance"


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_quick_log_matches_logm_near_radius(space):
    """At ||g - I|| = 0.8, inside the arrival test's log radius 0.9, the
    series log agrees with scipy's logm to roundoff, one matrix or a stack."""
    sys_ = build_dubins_system(space, 4)
    rng = np.random.default_rng(4)
    basis = sys_.full_algebra_basis()
    stack = []
    for _ in range(3):
        x = sum(c * b for c, b in zip(rng.standard_normal(len(basis)), basis))
        scale = brentq(lambda a: np.linalg.norm(expm(a * x) - np.eye(sys_.d))
                       - 0.8, 0.0, 2.0 / np.linalg.norm(x))
        stack.append(expm(scale * x))
    stack = np.array(stack)
    for g in stack:
        assert np.linalg.norm(g - np.eye(sys_.d)) == pytest.approx(0.8)
        assert np.max(np.abs(_quick_log(g) - logm(g).real)) <= 1e-12
    each = np.array([_quick_log(g) for g in stack])
    assert np.max(np.abs(_quick_log(stack) - each)) <= 1e-14


def _serial_control(comp, t_hat, m):
    """The competitor's control one time at a time: its needle overlay,
    its band modes, or zero."""
    def control(s):
        if comp.needle is not None:
            return comp.needle.overlay(s)
        out = np.zeros(m)
        if comp.coeff is not None:
            for k in range(len(comp.coeff) // 2):
                phase = 2.0 * np.pi * (k + 1) * s / t_hat
                out += comp.coeff[2 * k] * np.cos(phase)
                out += comp.coeff[2 * k + 1] * np.sin(phase)
        return out

    return control


@pytest.mark.parametrize("space", ["sphere", "hyperbolic"])
def test_stacked_flows_match_serial(space):
    """Each member of a stacked competitor flow equals the flow of its own
    control on its own grid, integrated alone."""
    sys_ = build_dubins_system(space, 4)
    t_hat = 1.0
    comps = _sample_competitors(sys_, t_hat, 1.1,
                                _integration_grid(1.1, 0.02, include=(t_hat,)),
                                9, 0.1, 2)
    by_length = {}
    for comp in comps:
        by_length.setdefault(comp.grid.size, []).append(comp)
    assert sorted(len(v) for v in by_length.values()) == [3, 6]
    for members in by_length.values():
        stacked = np.array(_stacked_flows(sys_, members, t_hat,
                                          np.eye(sys_.d)))
        for j, comp in enumerate(members):
            control = _serial_control(comp, t_hat, sys_.m)

            def rhs(t, q):
                u = control(t)
                return q @ (sys_.drift + sum(u[i] * sys_.controlled[i]
                                             for i in range(sys_.m)))

            alone = rk4_flow(rhs, comp.grid, np.eye(sys_.d),
                             lambda t, q: sys_.project_to_group(q))
            assert np.max(np.abs(stacked[:, j] - np.array(alone))) <= 1e-12
    assert {c.family for c in comps} == {"needle", "band", "retimed"}


def test_target_residual_of_stack(dub3, extremal3):
    """residual() of a (T, d, d) stack is the residual of each matrix."""
    q_f = extremal3.q[-1]
    target = TargetSpec(q_f, dubins_adapted_chart(dub3))
    stack = np.array([q_f @ expm(a * dub3.drift + 0.1 * dub3.controlled[1])
                      for a in (-2.0, -0.05, 0.0, 0.3)])
    res = target.residual(stack)
    assert res.shape == (4,) and res[0] == np.inf
    for r, q in zip(res, stack):
        assert r == pytest.approx(target.residual(q), rel=1e-12, abs=1e-15)
    # a block of two members: the stack, and one that never arrives
    block = np.array([stack, stack[[0, 1, 0, 1]]])
    assert target.residual(block).shape == (2, 4)
    arrivals = target.arrival_time(np.array([np.arange(4.0)] * 2), block)
    assert arrivals.tolist() == [2.0, np.inf]


def test_graph_distance_uses_nearest_reference_point(dub3):
    """A state equal to the reference at t = 0.125 is 0.025 from the
    reference at 0.1, the nearest grid time, and 0.075 from the one at
    0.2; the distance is the former. Past the end the reference holds."""
    chart = dubins_adapted_chart(dub3)
    unit = dub3.controlled[0]
    assert np.linalg.norm(chart.b_pinv @ unit.ravel()) == pytest.approx(1.0)
    ref_grid = np.linspace(0.0, 1.0, 11)
    ref_inv = np.array([expm(-t * unit) for t in ref_grid])
    # one member per case, each a single state on a one-point grid
    times = np.array([0.125, 0.17, 0.3, 0.0, 1.05])
    expected = [0.025, 0.03, 0.0, 0.0, 0.05]
    states = np.array([[expm(t * unit)] for t in times])
    dist = graph_distance(times[:, None], states, ref_grid, ref_inv,
                          chart.b_pinv)
    assert dist == pytest.approx(expected, abs=1e-14)


def direct_arrival(target, grid, states):
    """Earliest arrival of one member's (T, d, d) states on its grid."""
    hits = np.flatnonzero(target.residual(states) <= TARGET_TOL)
    return float(grid[hits[0]]) if hits.size else np.inf


def direct_graph_distance(grid, states, ref_grid, ref_inv, b_pinv):
    """graph_distance of one member's (T, d, d) states, with its own log."""
    k = np.clip(np.searchsorted(ref_grid, grid), 1, len(ref_grid) - 1)
    k = k - (grid - ref_grid[k - 1] <= ref_grid[k] - grid)
    rel = ref_inv[k] @ states
    if np.any(np.linalg.norm(rel - np.eye(rel.shape[-1]), axis=(1, 2)) >= 0.9):
        return np.inf
    x = _quick_log(rel).reshape(len(rel), -1) @ b_pinv.T
    return float(np.max(np.linalg.norm(x, axis=1)))


def _sweep_problem(space, n):
    config = load_config({"system": {"kind": "dubins", "space_form": space,
                                     "N": n}})
    system, chart, trajectory = _build_problem(config)
    target = TargetSpec(trajectory.q[-1], chart)
    t_hat = trajectory.horizon
    ref_grid = _integration_grid(1.1 * t_hat, 0.02, include=(t_hat,))
    ref_inv = np.linalg.inv(reference_flow(system, ref_grid))
    return system, trajectory, target, ref_grid, ref_inv


def test_block_scores_match_member_scores():
    """arrival_time and graph_distance of a block equal the scores of its
    members one at a time; a member far off the reference scores inf.
    The series log stops on a block-wide criterion, so distances may move
    by roundoff."""
    system, trajectory, target, ref_grid, ref_inv = _sweep_problem("sphere", 4)
    t_hat = trajectory.horizon
    comps = _sample_competitors(system, t_hat, 1.1 * t_hat, ref_grid, 12,
                                0.1, 3)
    by_length = {}
    for comp in comps:
        by_length.setdefault(comp.grid.size, []).append(comp)
    for members in by_length.values():
        flow = _stacked_flows(system, members, t_hat, np.eye(system.d))
        states = np.stack(flow, axis=1)
        grid = np.array([c.grid for c in members])
        states = np.concatenate(
            [states, states[:1] @ expm(2.0 * system.controlled[0])])
        grid = np.concatenate([grid, grid[:1]])
        arrivals = target.arrival_time(grid, states)
        dists = graph_distance(grid, states, ref_grid, ref_inv,
                               target.b_pinv)
        assert arrivals.shape == dists.shape == (len(members) + 1,)
        assert dists[-1] == np.inf and arrivals[-1] == np.inf
        for g, s, arrival, dist in zip(grid, states, arrivals, dists):
            assert arrival == direct_arrival(target, g, s)
            assert dist == pytest.approx(direct_graph_distance(
                g, s, ref_grid, ref_inv, target.b_pinv), rel=0, abs=1e-15)
    assert np.isfinite(arrivals[:-1]).any()


@pytest.mark.parametrize("space", ["sphere", "hyperbolic"])
def test_sweep_records_match_per_competitor_scoring(space):
    """competitor_sweep's records equal those of the same stacked flows
    scored one competitor at a time."""
    system, trajectory, target, ref_grid, ref_inv = _sweep_problem(space, 4)
    t_hat = trajectory.horizon
    report = competitor_sweep(system, trajectory, target)
    comps = _sample_competitors(system, t_hat, 1.1 * t_hat, ref_grid, 200,
                                0.1, 0)
    by_length = {}
    for idx, comp in enumerate(comps):
        by_length.setdefault(comp.grid.size, []).append(idx)
    records = [None] * len(comps)
    for idxs in by_length.values():
        flow = _stacked_flows(system, [comps[i] for i in idxs], t_hat,
                              np.eye(system.d))
        for j, idx in enumerate(idxs):
            states = np.array([y[j] for y in flow])
            arrival = direct_arrival(target, comps[idx].grid, states)
            dist = direct_graph_distance(comps[idx].grid, states, ref_grid,
                                         ref_inv, target.b_pinv)
            records[idx] = {
                "sample": idx, "family": comps[idx].family,
                "seed": comps[idx].seed,
                "arrival": float(arrival) if np.isfinite(arrival) else None,
                "graph_distance": float(dist) if np.isfinite(dist) else None}
    assert report.records == records
    assert report.verdict == "no counterexample"
