"""Tests for needle variations, the scaling check, and the competitor sweep."""

import dataclasses
import functools

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
    LOG_RADIUS,
    TARGET_TOL,
    TargetSpec,
    _band_flow,
    _needle_exponentials,
    _needle_samples,
    _quick_log,
    _sample_competitors,
    competitor_sweep,
    graph_distance,
    needle_variation,
    report_to_csv,
)
from singcert.numerics import log_head, rk4_flow, rk4_stage_times, time_grid
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


def driftless_needle_discrepancies(system, t_vec, t_bar,
                                   eps_grid=(0.2, 0.1, 0.05, 0.025)):
    """||x(eps) - eps x_1|| over eps_grid: x(eps) is the chart inverse of
    the product of a needle's exact piece exponentials with the drift
    zeroed, and eps x_1 its eps-linear part, the weighted sum of the word's
    generators in the adapted frame."""
    driftless = dataclasses.replace(system, drift=np.zeros_like(system.drift))
    needles = [needle_variation(0.0, t_vec, eps, horizon=np.inf, m=system.m,
                                t_bar=t_bar) for eps in eps_grid]
    ends = functools.reduce(
        np.matmul, _needle_exponentials(driftless, needles).swapaxes(0, 1))
    chart = dubins_adapted_chart(system)
    lin = sum((a - b) * system.controlled[c] for a, b, c in
              zip(t_vec, t_bar, needles[0].channels))
    x_1 = chart.solve_in_frame(np.zeros(chart.n), lin)
    return np.array([np.linalg.norm(chart.inverse(end) - eps * x_1)
                     for eps, end in zip(eps_grid, ends)])


def test_scaling_check_bracket_word():
    """Displacement along the [A1, A2] word scales at fitted order >= 1.8
    on all three space forms."""
    eps_grid = np.array([0.2, 0.1, 0.05, 0.025])
    for space in ("euclidean", "sphere", "hyperbolic"):
        discs = driftless_needle_discrepancies(
            build_dubins_system(space, 3), np.array([0.05, 0.05, 0.04]),
            np.array([0.02, 0.03, 0.02]), eps_grid)
        assert np.polyfit(np.log(eps_grid), np.log(discs), 1)[0] >= 1.8


def test_scaling_check_abelian_exact(dub3):
    """A single active channel commutes with itself: discrepancy zero."""
    # channels for R = 3 cycle (1, 2, 1): zero out channel 2 entries
    discs = driftless_needle_discrepancies(
        dub3, np.array([0.05, 0.0, 0.03]), np.array([0.02, 0.0, 0.01]))
    assert np.max(discs) <= 1e-12


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
    """At radius 0 every competitor is a needle of length 0, the reference
    itself: each arrives at the horizon, on the reference."""
    target = TargetSpec(extremal3.q[-1], dubins_adapted_chart(dub3))
    report = competitor_sweep(dub3, extremal3, target, n_samples=3,
                              radius=0.0, seed=5)
    assert report.verdict == "no counterexample"
    assert report.min_arrival == pytest.approx(extremal3.horizon, abs=1e-12)
    for record in report.records:
        assert record["family"] == "needle"
        assert record["arrival"] == extremal3.horizon
        assert record["graph_distance"] <= 1e-15


@pytest.mark.parametrize("n_samples", [0, 1])
def test_sweep_of_needles_only_runs(dub3, extremal3, n_samples):
    """Zero competitors, or a single needle and no band, still give a
    report; no needle arrives."""
    target = TargetSpec(extremal3.q[-1], dubins_adapted_chart(dub3))
    report = competitor_sweep(dub3, extremal3, target, n_samples=n_samples)
    assert report.verdict == "no counterexample"
    assert report.as_dict()["min_arrival"] is None
    assert [r["family"] for r in report.records] == ["needle"] * n_samples
    assert all(0.0 < r["graph_distance"] < 0.1 for r in report.records)


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


def _fine_needle_flow(system, needle, times, horizon):
    """M' = M (A0 + sum u_i A_i), M(0) = I, u the needle's overlay held at
    each step's midpoint, by RK4 on a grid of 1e-3 steps with 8 steps on
    each piece of the window and a point at every one of ``times``: the
    states at ``times``."""
    bounds = np.unique(times[times >= needle.s_bar])[:2 * len(needle.channels)
                                                     + 1]
    pieces = [np.linspace(a, b, 9) for a, b in zip(bounds[:-1], bounds[1:])]
    fine = np.unique(np.concatenate([np.linspace(0.0, horizon, 1101), times]
                                    + pieces))
    eye = np.eye(system.d)
    states = [eye]
    for a, b in zip(fine[:-1], fine[1:]):
        u = needle.overlay(0.5 * (a + b))
        hm = (b - a) * (system.drift + sum(u[i] * system.controlled[i]
                                           for i in range(system.m)))
        # one RK4 step of the constant-coefficient flow
        step = eye + hm @ (eye + hm @ (eye + hm @ (eye + hm / 4) / 3) / 2)
        states.append(states[-1] @ step)
    return np.array(states)[np.searchsorted(fine, times)]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_needle_states_match_fine_rk4(space, n):
    """A needle's samples equal a fine RK4 of its overlay, and each is
    compared with the exact reference at its own sample time."""
    sys_ = build_dubins_system(space, n)
    t_hat, horizon = 1.0, 1.1
    grid = np.union1d(time_grid(horizon, 0.02), [t_hat])
    ref = reference_flow(sys_, grid)
    needles = [c.needle for c in _sample_competitors(sys_, t_hat, horizon,
                                                     6, 0.1, 2)
               if c.needle is not None]
    times, states, rel = _needle_samples(
        needles, _needle_exponentials(sys_, needles), grid, ref,
        np.linalg.inv(ref), np.eye(sys_.d))
    assert times.shape == (3, grid.size + 2 * sys_.R + 1)
    for needle, t, q, r in zip(needles, times, states, rel):
        assert np.all(np.isin(t, grid) | (t >= needle.s_bar))
        expect = _fine_needle_flow(sys_, needle, t, horizon)
        assert np.max(np.abs(q - expect)) <= 1e-12
        exact_ref = reference_flow(sys_, t)
        assert np.max(np.abs(exact_ref @ r - q)) <= 1e-12


def rk4_band(system, c, t_hat, grid):
    """One band with coefficients c (2 _BAND_MODES, m) flowed from I by
    plain RK4 on the grid: the oracle for the Magnus band flow."""
    times = rk4_stage_times(grid)

    def rhs(row, q):
        t = times[row]
        u = sum(c[2 * k] * np.cos(2.0 * np.pi * (k + 1) * t / t_hat)
                + c[2 * k + 1] * np.sin(2.0 * np.pi * (k + 1) * t / t_hat)
                for k in range(len(c) // 2))
        return q @ (system.drift + sum(u[i] * system.controlled[i]
                                       for i in range(system.m)))

    return rk4_flow(rhs, grid, np.eye(system.d))


def refine(grid, sub):
    """The grid with each step cut into sub equal steps."""
    return np.concatenate([np.linspace(a, b, sub + 1)[:-1]
                           for a, b in zip(grid[:-1], grid[1:])]
                          + [grid[-1:]])


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_stacked_flows_match_serial(space):
    """Each member of the stacked band flow equals its own band flowed
    alone; the flow is within 1e-6 of RK4 at dt/32 on the falsifier's
    grid, and halving its step shows fourth order."""
    sys_ = build_dubins_system(space, 4)
    t_hat = 1.0
    grid = np.union1d(time_grid(1.1, 0.02), [t_hat])
    comps = _sample_competitors(sys_, t_hat, 1.1, 9, 0.1, 2)
    coeff = np.array([c.coeff for c in comps if c.coeff is not None])
    assert [c.family for c in comps] == ["needle", "band"] * 4 + ["needle"]
    stacked, residual = _band_flow(sys_, coeff, t_hat, np.eye(sys_.d), grid)
    assert stacked.shape == (grid.size, 4, sys_.d, sys_.d)
    assert residual == np.max(sys_.group_residual(stacked[-1]))
    for j, c in enumerate(coeff):
        alone, _ = _band_flow(sys_, coeff[j:j + 1], t_hat, np.eye(sys_.d),
                              grid)
        assert np.array_equal(stacked[:, j], alone[:, 0])
        fine = rk4_band(sys_, c, t_hat, refine(grid, 32))[::32]
        assert np.max(np.abs(stacked[:, j] - fine)) <= 1e-6

    ends = [_band_flow(sys_, coeff, t_hat, np.eye(sys_.d),
                       np.linspace(0.0, 1.1, steps + 1))[0][-1]
            for steps in (8, 16, 32, 64)]
    exact = np.array([rk4_band(sys_, c, t_hat,
                               np.linspace(0.0, 1.1, 2 ** 12 + 1))[-1]
                      for c in coeff])
    errs = [np.max(np.abs(end - exact)) for end in ends]
    order = -np.polyfit(np.log([8, 16, 32, 64]), np.log(errs), 1)[0]
    assert order >= 3.7


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


def test_arrival_time_of_unsorted_samples(dub3, extremal3):
    """The earliest hitting sample time, whatever the order of the
    samples, for per-member and for shared times."""
    q_f = extremal3.q[-1]
    target = TargetSpec(q_f, dubins_adapted_chart(dub3))
    stack = np.array([q_f @ expm(a * dub3.drift + 0.1 * dub3.controlled[1])
                      for a in (0.0, -0.05, 0.0, 0.3)])
    times = np.array([0.5, 0.1, 0.3, 0.2])
    assert target.arrival_time(times[None], stack[None]).tolist() == [0.3]
    block = np.array([stack, stack[[1, 3, 0, 1]]])
    assert target.arrival_time(times, block).tolist() == [0.3, 0.3]


def test_graph_distance_at_own_time(dub3):
    """Each sample is compared with the reference at its own time, between
    reference grid points, in any order and past the horizon: states on
    the reference are at distance 0, states displaced by 0.04 along a unit
    controlled direction at 0.04, and a far state puts its member at inf."""
    chart = dubins_adapted_chart(dub3)
    unit = dub3.controlled[1]
    assert np.linalg.norm(chart.b_pinv @ unit.ravel()) == pytest.approx(1.0)
    times = np.array([0.125, 0.17, 1.05, 0.0, 0.3])
    ref = expm(times[:, None, None] * dub3.drift)
    states = np.array([ref, ref @ expm(0.04 * unit),
                       ref @ expm(np.array([0, 0, 0, 0, 2.0])[:, None, None]
                                  * unit)])
    rel = np.linalg.inv(ref) @ states
    dist = graph_distance(rel, chart.b_pinv)
    assert dist[0] <= 1e-15
    assert dist[1] == pytest.approx(0.04, abs=1e-15)
    assert dist[2] == np.inf


def direct_arrival(target, times, states):
    """Earliest arrival of one member's (n, d, d) states at its times."""
    hits = target.residual(states) <= TARGET_TOL
    return float(np.min(times[hits])) if hits.any() else np.inf


def direct_graph_distance(rel, b_pinv):
    """graph_distance of one member's (n, d, d) relative states, with its
    own log."""
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
    grid = np.union1d(time_grid(1.1 * t_hat, 0.02), [t_hat])
    return system, trajectory, target, grid, reference_flow(system, grid)


def test_block_scores_match_member_scores():
    """arrival_time and graph_distance of a block of needles, and of a
    slice of the band flow, equal the scores of its members one at a time;
    a member far off the reference scores inf, and the reference itself
    arrives at the horizon. The series log stops on a block-wide
    criterion, so distances may move by roundoff."""
    system, trajectory, target, grid, ref = _sweep_problem("sphere", 4)
    t_hat = trajectory.horizon
    ref_inv = np.linalg.inv(ref)
    comps = _sample_competitors(system, t_hat, 1.1 * t_hat, 16, 0.1, 3)
    needles = [c.needle for c in comps[::2]]
    bands = _band_flow(system, np.array([c.coeff for c in comps[1::2]]),
                       t_hat, np.eye(system.d), grid)[0][:, 2:6].swapaxes(0, 1)
    blocks = [_needle_samples(needles, _needle_exponentials(system, needles),
                              grid, ref, ref_inv, np.eye(system.d)),
              (np.broadcast_to(grid, bands.shape[:2]), bands, ref_inv @ bands)]
    for times, states, rel in blocks:
        on_ref = reference_flow(system, times[0])
        far = states[0] @ expm(2.0 * system.controlled[0])
        times = np.concatenate([times, times[:2]])
        states = np.concatenate([states, [far, on_ref]])
        rel = np.concatenate([rel, np.linalg.inv([on_ref, on_ref])
                              @ [far, on_ref]])
        arrivals = target.arrival_time(times, states)
        dists = graph_distance(rel, target.b_pinv)
        assert arrivals.shape == dists.shape == (len(states),)
        assert dists[-2] == np.inf and arrivals[-2] == np.inf
        assert arrivals[-1] == t_hat
        for t, s, r, arrival, dist in zip(times, states, rel, arrivals,
                                          dists):
            assert arrival == direct_arrival(target, t, s)
            assert dist == pytest.approx(direct_graph_distance(
                r, target.b_pinv), rel=0, abs=1e-15)


@pytest.mark.parametrize("space", ["sphere", "hyperbolic"])
def test_sweep_records_match_per_competitor_scoring(space):
    """competitor_sweep's records equal those of each needle sampled alone
    and each band's column of the band flow, scored one competitor at a
    time."""
    system, trajectory, target, grid, ref = _sweep_problem(space, 4)
    t_hat = trajectory.horizon
    ref_inv = np.linalg.inv(ref)
    report = competitor_sweep(system, trajectory, target)
    comps = _sample_competitors(system, t_hat, 1.1 * t_hat, 200, 0.1, 0)
    flow, residual = _band_flow(
        system, np.array([c.coeff for c in comps[1::2]]), t_hat,
        np.eye(system.d), grid)
    assert report.band_group_residual == residual
    records = []
    for idx, comp in enumerate(comps):
        if comp.needle is not None:
            times, states, rel = (a[0] for a in _needle_samples(
                [comp.needle], _needle_exponentials(system, [comp.needle]),
                grid, ref, ref_inv, np.eye(system.d)))
        else:
            times, states = grid, flow[:, idx // 2]
            rel = ref_inv @ states
        arrival = direct_arrival(target, times, states)
        dist = direct_graph_distance(rel, target.b_pinv)
        records.append({
            "sample": idx, "family": comp.family, "seed": comp.seed,
            "arrival": float(arrival) if np.isfinite(arrival) else None,
            "graph_distance": float(dist) if np.isfinite(dist) else None})
    assert report.records == records
    assert report.verdict == "no counterexample"


@pytest.mark.parametrize("space, horizon", [("euclidean", 1.0),
                                            ("sphere", 1.0),
                                            ("hyperbolic", 1.0),
                                            ("hyperbolic", 5.0)])
def test_band_group_residual_is_rounding(space, horizon):
    """The band flow's drift off the group, read before its guard, stays
    under d u T max(1, max|g|)^2: u the unit roundoff, T the grid points
    and g the flow's last row. Without bands the report holds None."""
    config = load_config({"system": {"kind": "dubins", "space_form": space,
                                     "N": 4}, "horizon": horizon})
    system, chart, trajectory = _build_problem(config)
    target = TargetSpec(trajectory.q[-1], chart)
    grid = np.union1d(time_grid(1.1 * horizon, 0.02), [horizon])
    comps = _sample_competitors(system, horizon, 1.1 * horizon, 200, 0.1, 0)
    last = _band_flow(system, np.array([c.coeff for c in comps[1::2]]),
                      horizon, np.eye(system.d), grid)[0][-1]
    bound = (system.d * np.finfo(float).eps / 2 * grid.size
             * max(1.0, np.max(np.abs(last))) ** 2)
    report = competitor_sweep(system, trajectory, target)
    assert 0.0 < report.band_group_residual <= bound
    assert report.as_dict()["band_group_residual"] == \
        report.band_group_residual
    needles_only = competitor_sweep(system, trajectory, target, n_samples=1)
    assert needles_only.band_group_residual is None
    assert needles_only.as_dict()["band_group_residual"] is None


def _at_distance(q_f, x, delta):
    """q_f exp(s x), with s chosen so that ||exp(s x) - I||_F = delta."""
    eye = np.eye(len(q_f))
    s = brentq(lambda a: np.linalg.norm(expm(a * x) - eye) - delta, 0.0,
               3.0 / np.linalg.norm(x), xtol=1e-300)
    return q_f @ expm(s * x)


def _misranked_pair(system, b_pinv):
    """Two states at chart distance about 0.5 from I, where the log head
    ranks them opposite to the exact log: exp(r_p P) and exp(r_q Q) with
    P and Q unit directions whose third-order heads overshoot least and
    most."""
    basis = system.full_algebra_basis()
    dirs = [system.drift, system.controlled[0], sum(basis),
            system.drift + system.controlled[0]]
    dirs = [x / np.linalg.norm(b_pinv @ x.ravel()) for x in dirs]

    def size(mats, log):
        return np.linalg.norm(log(np.array(mats)).reshape(len(mats), -1)
                              @ b_pinv.T, axis=1)

    def head(mats):
        return log_head(mats)[0]

    over = size([expm(0.5 * x) for x in dirs], head)
    p, q = dirs[np.argmin(over)], dirs[np.argmax(over)]
    pair = [expm(0.5 * p), expm((0.5 - (over.max() - over.min()) / 4) * q)]
    exact, approx = size(pair, _quick_log), size(pair, head)
    assert exact[0] > exact[1] and approx[0] < approx[1]
    return pair


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_scores_match_all_log_oracle(space, monkeypatch):
    """On blocks that mix states on the target, states 2 TARGET_TOL off it
    along A0, and states on either side of the log radius, arrival_time
    and graph_distance equal the oracle that logs every state, while the
    log head decides part of the states without a series log. Two kinds
    of state defeat a head without its bound: on-target states 0.99
    TARGET_TOL along A0 from the orbit, at a displacement where the head
    overshoots the tolerance, and a member whose two largest samples the
    head ranks the wrong way round."""
    system, trajectory, target, _, _ = _sweep_problem(space, 4)
    q_f = trajectory.q[-1]
    rng = np.random.default_rng(5)
    a_c, a_0 = system.controlled, system.drift
    on = [q_f @ expm(a * a_c[c]) for a in (0.0, 0.05, -0.3, 0.45)
          for c in range(system.m)]
    on += [q_f @ expm(0.45 * (a_c[c] + 0.5 * a_c[c - 1])
                      + 0.99 * TARGET_TOL * a_0) for c in range(system.m)]
    off = [q_f @ expm(a * a_c[c]) @ expm(sign * 2 * TARGET_TOL * a_0)
           for a in (0.0, 0.02, 0.4) for c in range(system.m)
           for sign in (1.0, -1.0)]
    basis = system.full_algebra_basis()
    edge = [_at_distance(q_f, np.tensordot(rng.standard_normal(len(basis)),
                                           basis, 1), LOG_RADIUS + side)
            for side in (-1e-7, 1e-7) for _ in range(3)]
    assert all(target.residual(s) <= TARGET_TOL for s in on)
    assert all(TARGET_TOL < target.residual(s) <= 3 * TARGET_TOL
               for s in off)
    pool = np.array(on + off + edge)
    kinds = np.split(np.arange(len(pool)), [len(on), len(on) + len(off)])
    n = 6
    members = [rng.choice(len(pool), n, replace=False) for _ in range(12)]
    members += [rng.choice(kind, n) for kind in kinds]
    members += [np.append(rng.choice(kinds[1], n - 1), kind[-1])
                for kind in kinds]
    states = pool[np.array(members)]
    times = rng.permutation(states.shape[0] * n).reshape(-1, n) / 8.0
    rel = np.concatenate([target.q_f_inv @ states, [
        _misranked_pair(system, target.b_pinv) + [np.eye(system.d)] * 4]])
    arrive_expect = [direct_arrival(target, t, s)
                     for t, s in zip(times, states)]
    shared_expect = [direct_arrival(target, times[0], s) for s in states]
    dist_expect = [direct_graph_distance(r, target.b_pinv) for r in rel]
    assert np.isfinite(arrive_expect).any() and np.isinf(arrive_expect).any()
    assert np.isfinite(dist_expect).any() and np.isinf(dist_expect).any()

    logged = []

    def counting_log(mat):
        logged.append(len(mat))
        return _quick_log(mat)

    monkeypatch.setattr("singcert.falsifier._quick_log", counting_log)
    assert target.arrival_time(times, states).tolist() == arrive_expect
    assert target.arrival_time(times[0], states).tolist() == shared_expect
    # the head decides some of the states inside the log radius, and the
    # rest take the exact log
    inside = np.linalg.norm(rel - np.eye(system.d), axis=(2, 3)) < LOG_RADIUS
    assert logged[0] == logged[1] and 0 < logged[0] < inside[:-1].sum()
    logged.clear()
    dists = graph_distance(rel, target.b_pinv)
    assert 0 < sum(logged) < inside.all(axis=1).sum() * n
    for dist, expect in zip(dists, dist_expect):
        assert dist == pytest.approx(expect, rel=1e-15, abs=0.0)
