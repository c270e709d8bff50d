"""Tests for needle variations, the scaling check, and the competitor sweep."""

import dataclasses
import functools
import re

import numpy as np
import pytest
from scipy.linalg import expm, logm
from scipy.optimize import brentq

from singcert.chart import dubins_adapted_chart
from singcert.extremal import (
    adjoint_trajectory,
    dubins_initial_covector,
    reference_flow,
    verify_structure_properties,
)
from singcert.falsifier import (
    LOG_RADIUS,
    TARGET_TOL,
    TargetSpec,
    _band_flow,
    _needle_exponentials,
    _needle_windows,
    _quick_log,
    _sample_competitors,
    competitor_sweep,
    graph_distance,
    needle_variation,
    report_to_csv,
)
from singcert.numerics import (
    log_head,
    plane_exp,
    rk4_flow,
    rk4_stage_times,
    time_grid,
)
from singcert.pipeline import _build_problem, load_config, run_check
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
    needles = needle_variation(np.zeros(len(eps_grid)),
                               np.tile(t_vec, (len(eps_grid), 1)), eps_grid,
                               horizon=np.inf, m=system.m, t_bar=t_bar)
    ends = functools.reduce(
        np.matmul, _needle_exponentials(driftless, needles).swapaxes(0, 1))
    chart = dubins_adapted_chart(system)
    lin = sum((a - b) * system.controlled[c] for a, b, c in
              zip(t_vec, t_bar, needles.channels))
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
    target = TargetSpec(dub3, q_f, dubins_adapted_chart(dub3))
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
    target = TargetSpec(dub3, extremal3.q[-1], dubins_adapted_chart(dub3))
    report = competitor_sweep(dub3, extremal3, target, n_samples=3,
                              radius=0.0, seed=5)
    assert report.verdict == "no counterexample"
    assert report.min_arrival == pytest.approx(extremal3.horizon, abs=1e-12)
    tallies = report.as_dict()["tallies"]
    assert tallies["needle"] == {"sampled": 3, "outside_log_radius": 0,
                                 "inadmissible": 0, "missed": 0,
                                 "arrived": 3, "arrived_early": 0}
    assert tallies["band"]["sampled"] == 0
    for record in report.records:
        assert record["family"] == "needle"
        assert record["arrival"] == extremal3.horizon
        assert record["graph_distance"] <= 1e-15


@pytest.mark.parametrize("n_samples", [0, 1])
def test_sweep_of_needles_only_runs(dub3, extremal3, n_samples):
    """Zero competitors, or a single needle and no band, still give a
    report; no needle arrives."""
    target = TargetSpec(dub3, extremal3.q[-1], dubins_adapted_chart(dub3))
    report = competitor_sweep(dub3, extremal3, target, n_samples=n_samples)
    assert report.verdict == "no counterexample"
    assert report.as_dict()["min_arrival"] is None
    assert [r["family"] for r in report.records] == ["needle"] * n_samples
    assert all(0.0 < r["graph_distance"] < 0.1 for r in report.records)


def test_sweep_certified_arc_not_falsified(dub3, extremal3):
    target = TargetSpec(dub3, extremal3.q[-1], dubins_adapted_chart(dub3))
    report = competitor_sweep(dub3, extremal3, target, n_samples=60,
                              radius=0.1, seed=7)
    assert report.verdict == "no counterexample"
    assert report.min_arrival >= extremal3.horizon - 1e-6


def test_sweep_deterministic(dub3, extremal3):
    target = TargetSpec(dub3, extremal3.q[-1], dubins_adapted_chart(dub3))
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
    target = TargetSpec(sph3, traj.q[-1], dubins_adapted_chart(sph3))
    report = competitor_sweep(sph3, traj, target, n_samples=9, radius=0.1,
                              seed=11)
    assert report.refuted
    assert report.witness is not None
    assert report.witness["arrival"] < traj.horizon - 1e-6


def test_report_csv(tmp_path, dub3, extremal3):
    target = TargetSpec(dub3, extremal3.q[-1], dubins_adapted_chart(dub3))
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
    basis = sys_.algebra_basis
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


def needle_list(needles):
    """The needles of a stack, one NeedleVariation each."""
    return [needle_variation(s, t, e, np.inf, needles.m, needles.t_bar)
            for s, t, e in zip(needles.s_bar, needles.t_vec, needles.eps)]


def needle_at(needles, k):
    """Needle k of a stack, as a stack of one."""
    return dataclasses.replace(needles, s_bar=needles.s_bar[k:k + 1],
                               t_vec=needles.t_vec[k:k + 1],
                               eps=needles.eps[k:k + 1])


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
    """A needle's window states, and Y ref(t) on the grid after its window,
    equal a fine RK4 of its overlay; each window state is compared with
    the exact reference at its own sample time."""
    sys_ = build_dubins_system(space, n)
    t_hat, horizon = 1.0, 1.1
    grid = np.union1d(time_grid(horizon, 0.02), [t_hat])
    ref = reference_flow(sys_, grid)
    needles = _sample_competitors(sys_, t_hat, horizon, 6, 0.1, 2).needles
    times, states, ref_inv, shift = _needle_windows(
        sys_, needles, _needle_exponentials(sys_, needles), np.eye(sys_.d))
    assert times.shape == (3, 2 * sys_.R + 1)
    for needle, t, q, r, y in zip(needle_list(needles), times, states,
                                  ref_inv @ states, shift):
        assert t[0] == needle.s_bar
        after = grid > t[-1]
        expect = _fine_needle_flow(sys_, needle,
                                   np.concatenate([t, grid[after]]), horizon)
        assert np.max(np.abs(q - expect[:t.size])) <= 1e-12
        assert np.max(np.abs(y @ ref[after] - expect[t.size:])) <= 1e-12
        exact_ref = reference_flow(sys_, t)
        assert np.max(np.abs(exact_ref @ r - q)) <= 1e-12


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_needle_exponentials_match_per_needle_loop(space):
    """The broadcast generator stack of _needle_exponentials equals, byte
    for byte, the per-needle loop that built it one needle at a time."""
    sys_ = build_dubins_system(space, 4)
    needles = _sample_competitors(sys_, 1.0, 1.1, 12, 0.1, 4).needles
    a0, controlled = sys_.drift, np.array(sys_.controlled)
    gens = []
    for needle in needle_list(needles):
        h = needle.eps ** 2 / len(needle.channels)
        channels = list(needle.channels) + list(needle.channels[::-1])
        a = needle.eps * np.concatenate([needle.t_vec, -needle.t_bar[::-1]])
        gens.append(np.concatenate([[needle.s_bar * a0, h * a0],
                                    h * a0 + a[:, None, None]
                                    * controlled[channels]]))
    assert np.array_equal(_needle_exponentials(sys_, needles),
                          plane_exp(np.array(gens)))


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
    coeff = comps.coeff
    assert comps.family.tolist() == ["needle", "band"] * 4 + ["needle"]
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


def magnus_generators(system, coeff, t_hat, grid):
    """The generators h (w1 A(t1) + w2 A(t2)) and h (w2 A(t1) + w1 A(t2))
    of every Magnus step of the bands ``coeff``, as dense matrices
    (T - 1, 2, B, d, d): the controls summed mode by mode at the Gauss
    nodes, and A(t) = A0 + sum u_i(t) A_i."""
    h, r = np.diff(grid), np.sqrt(3.0) / 6.0
    nodes = grid[:-1, None] + (0.5 + np.array([-r, r])) * h[:, None]
    u = 0.0
    for k in range(coeff.shape[1] // 2):
        phase = (2.0 * np.pi * (k + 1) * nodes / t_hat)[..., None, None]
        u = u + (coeff[:, 2 * k] * np.cos(phase)
                 + coeff[:, 2 * k + 1] * np.sin(phase))
    a = system.drift + np.tensordot(u, np.array(system.controlled), 1)
    weights = 0.25 + np.array([[r, -r], [-r, r]])
    return h[:, None, None, None, None] * np.einsum("ji,kibxy->kjbxy",
                                                    weights, a)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["drift", "flipped"])
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_band_factors_match_plane_exp(space, n, sign):
    """Every step of the band flow, whose two factors are formed from the
    columns and rows of wedge generators, equals the state before it
    times the plane_exp of the two dense generators, to a few ulp of the
    state: on each form, with the drift as built and flipped. The last
    row is left out: `project_to_group` guards it."""
    base = build_dubins_system(space, n)
    system = dataclasses.replace(base, drift=sign * base.drift)
    grid = np.union1d(time_grid(1.1, 0.02), [1.0])
    coeff = np.random.default_rng(n).standard_normal((6, 8, system.m)) / 3
    flow, _ = _band_flow(system, coeff, 1.0, np.eye(system.d), grid)
    factors = plane_exp(magnus_generators(system, coeff, 1.0, grid)[:-1])
    expect = flow[:-2] @ factors[:, 0] @ factors[:, 1]
    scale = np.maximum(1.0, np.max(np.abs(expect), axis=(-2, -1),
                                   keepdims=True))
    assert np.max(np.abs(flow[1:-1] - expect) / scale) \
        <= 4 * np.finfo(float).eps


def hypothesis(system, chart, name):
    """The named entry of the run's hypotheses on a system and chart."""
    return {h.name: h for h in verify_structure_properties(
        system, chart)}[name]


def test_band_flow_premise_is_checked():
    """The band factors read each field as a wedge c e1^T + e1 r^T: a drift
    with an entry off row and column 1, or a controlled field with a (1, 1)
    entry, fails the hypothesis fields_are_e1_wedges by that entry, which
    holds with residual 0 on the system as built."""
    system = build_dubins_system("sphere", 3)
    chart = dubins_adapted_chart(system)
    held = hypothesis(system, chart, "fields_are_e1_wedges")
    assert held.passed and held.residual == 0.0
    off_plane = system.drift.copy()
    off_plane[0, 2] = 0.1
    diagonal = np.array(system.controlled)
    diagonal[0, 1, 1] = 0.1
    for broken in (dataclasses.replace(system, drift=off_plane),
                   dataclasses.replace(system, controlled=tuple(diagonal))):
        check = hypothesis(broken, chart, "fields_are_e1_wedges")
        assert not check.passed
        assert check.residual == 0.1 and check.detail == {"bound": 0.0}


@pytest.mark.parametrize("horizon", [20.0, 30.0])
def test_long_hyperbolic_band_flow_is_a_projection_error(horizon):
    """On hyperbolic N = 3 at H = 20 and 30 the target and the reference
    invert in closed form, and the band flow's last row drifts too far off
    the group for its guard: the falsifier ends in a ProjectionError that
    names the row's group residual and the horizon."""
    report = run_check({"system": {"kind": "dubins",
                                   "space_form": "hyperbolic", "N": 3},
                        "horizon": horizon, "checks": ["falsifier"]})
    stage = report["stages"]["falsifier"]
    assert stage["status"] == "error"
    assert stage["error"]["type"] == "ProjectionError"
    assert re.fullmatch(
        r"the band flow's last row is \S+ off the group at horizon "
        rf"{horizon:g} and cannot be projected back: .+",
        stage["error"]["message"])


def test_target_residual_of_stack(dub3, extremal3):
    """residual() of a (T, d, d) stack is the residual of each matrix."""
    q_f = extremal3.q[-1]
    target = TargetSpec(dub3, q_f, dubins_adapted_chart(dub3))
    stack = np.array([q_f @ expm(a * dub3.drift + 0.1 * dub3.controlled[1])
                      for a in (-2.0, -0.05, 0.0, 0.3)])
    res = target.residual(stack)
    assert res.shape == (4,) and res[0] == np.inf
    for r, q in zip(res, stack):
        assert r == pytest.approx(target.residual(q), rel=1e-12, abs=1e-15)
    # a block of two members: the stack, and one that never arrives
    block = np.array([stack, stack[[0, 1, 0, 1]]])
    assert target.residual(block).shape == (2, 4)
    arrivals, miss = target.arrival_time(np.array([np.arange(4.0)] * 2),
                                         block)
    assert arrivals.tolist() == [2.0, np.inf]
    # the misses are the screen's, of every state of the block
    assert np.array_equal(miss, target.screen(block[..., :, 0])[0])


def test_arrival_time_of_unsorted_samples(dub3, extremal3):
    """The earliest hitting sample time, whatever the order of the
    samples, for per-member and for shared times."""
    q_f = extremal3.q[-1]
    target = TargetSpec(dub3, q_f, dubins_adapted_chart(dub3))
    stack = np.array([q_f @ expm(a * dub3.drift + 0.1 * dub3.controlled[1])
                      for a in (0.0, -0.05, 0.0, 0.3)])
    times = np.array([0.5, 0.1, 0.3, 0.2])
    assert target.arrival_time(times[None], stack[None])[0].tolist() == [0.3]
    block = np.array([stack, stack[[1, 3, 0, 1]]])
    assert target.arrival_time(times, block)[0].tolist() == [0.3, 0.3]


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
    dist = graph_distance(states, chart.b_pinv, np.linalg.inv(ref))
    assert dist[0] <= 1e-15
    assert dist[1] == pytest.approx(0.04, abs=1e-15)
    assert dist[2] == np.inf


def direct_arrival(target, times, states):
    """Earliest arrival of one member's (n, d, d) states at its times."""
    hits = target.residual(states) <= TARGET_TOL
    return float(np.min(times[hits])) if hits.any() else np.inf


def relative_distance(rel, b_pinv):
    """graph_distance of states given relative to the reference."""
    return graph_distance(rel, b_pinv, np.broadcast_to(
        np.eye(rel.shape[-1]), rel.shape[1:]))


def direct_graph_distance(rel, b_pinv):
    """graph_distance of one member's (n, d, d) relative states, with its
    own log."""
    if np.any(np.linalg.norm(rel - np.eye(rel.shape[-1]), axis=(1, 2)) >= 0.9):
        return np.inf
    x = _quick_log(rel).reshape(len(rel), -1) @ b_pinv.T
    return float(np.max(np.linalg.norm(x, axis=1)))


def _sweep_problem(space, n, horizon=1.0):
    config = load_config({"system": {"kind": "dubins", "space_form": space,
                                     "N": n}, "horizon": horizon})
    system, chart, trajectory, _ = _build_problem(config)
    target = TargetSpec(system, trajectory.q[-1], chart)
    t_hat = trajectory.horizon
    grid = np.union1d(time_grid(1.1 * t_hat, 0.02), [t_hat])
    return system, trajectory, target, grid, reference_flow(system, grid)


def needle_samples(window, grid, ref, ref_inv):
    """Every sample of one needle from its ``_needle_windows`` entry
    (times, states, the reference's inverses there, shift): the reference
    on the grid before the window, the window's 2r + 1 boundaries, and
    Y ref(t) on the grid after it. Returns times, states, ref^-1 q at each
    sample, and the mask of the window samples."""
    times, states, win_inv, shift = window
    before, after = grid < times[0], grid > times[-1]
    after_states = shift @ ref[after]
    return (np.concatenate([grid[before], times, grid[after]]),
            np.concatenate([ref[before], states, after_states]),
            np.concatenate([ref_inv[before] @ ref[before], win_inv @ states,
                            ref_inv[after] @ after_states]),
            np.concatenate([np.zeros(before.sum(), bool),
                            np.ones(times.size, bool),
                            np.zeros(after.sum(), bool)]))


def test_block_scores_match_member_scores():
    """arrival_time and graph_distance of a block of needle windows, and
    of a slice of the band flow, equal the scores of its members one at a
    time by their own series logs, whether given the states and the
    reference's inverses or the relative states; a member far off the
    reference scores inf, and the reference itself arrives at the
    horizon."""
    system, trajectory, target, grid, ref = _sweep_problem("sphere", 4)
    t_hat = trajectory.horizon
    ref_inv = np.linalg.inv(ref)
    comps = _sample_competitors(system, t_hat, 1.1 * t_hat, 16, 0.1, 3)
    needles = comps.needles
    bands = _band_flow(system, comps.coeff, t_hat, np.eye(system.d),
                       grid)[0][:, 2:6].swapaxes(0, 1)
    times, states, win_inv, _ = _needle_windows(
        system, needles, _needle_exponentials(system, needles),
        np.eye(system.d))
    assert np.array_equal(graph_distance(states, target.b_pinv, win_inv),
                          relative_distance(win_inv @ states, target.b_pinv))
    assert np.array_equal(graph_distance(bands, target.b_pinv, ref_inv),
                          relative_distance(ref_inv @ bands, target.b_pinv))
    blocks = [(times, states, win_inv @ states),
              (np.broadcast_to(grid, bands.shape[:2]), bands, ref_inv @ bands)]
    for times, states, rel in blocks:
        # the last n grid times hold the horizon
        n = states.shape[1]
        on_ref = reference_flow(system, grid[-n:])
        far = states[0] @ expm(2.0 * system.controlled[0])
        times = np.concatenate([times, [times[0], grid[-n:]]])
        states = np.concatenate([states, [far, on_ref]])
        rel = np.concatenate([rel, np.linalg.inv([on_ref, on_ref])
                              @ [far, on_ref]])
        arrivals = target.arrival_time(times, states)[0]
        dists = relative_distance(rel, target.b_pinv)
        assert arrivals.shape == dists.shape == (len(states),)
        assert dists[-2] == np.inf and arrivals[-2] == np.inf
        assert arrivals[-1] == t_hat
        for t, s, r, arrival, dist in zip(times, states, rel, arrivals,
                                          dists):
            assert arrival == direct_arrival(target, t, s)
            assert dist == direct_graph_distance(r, target.b_pinv)


@pytest.mark.parametrize("space, horizon", [("sphere", 1.0),
                                            ("hyperbolic", 1.0),
                                            ("hyperbolic", 5.0)],
                         ids=["sphere", "hyperbolic", "hyperbolic-5.0"])
def test_sweep_records_match_per_competitor_scoring(space, horizon):
    """competitor_sweep's records equal those of every state of each needle
    and each band's column of the band flow, scored one competitor at a
    time by the states' own series logs. A needle's distance is exact
    where its window holds the maximum; after the window the sweep reads
    ref(t)^-1 (log Y) ref(t) through its conjugation tables, within 1e-11
    relative of the log of each state."""
    system, trajectory, target, grid, ref = _sweep_problem(space, 4, horizon)
    t_hat = trajectory.horizon
    ref_inv = system.inverse(ref)
    report = competitor_sweep(system, trajectory, target)
    comps = _sample_competitors(system, t_hat, 1.1 * t_hat, 200, 0.1, 0)
    flow, residual = _band_flow(system, comps.coeff, t_hat,
                                np.eye(system.d), grid)
    assert report.band_group_residual == residual
    after_window = 0
    closest = []
    for idx, (family, seed, record) in enumerate(zip(
            comps.family, comps.seeds, report.records)):
        if family == "needle":
            needle = needle_at(comps.needles, idx // 2)
            window = (a[0] for a in _needle_windows(
                system, needle, _needle_exponentials(system, needle),
                np.eye(system.d)))
            times, states, rel, in_window = needle_samples(window, grid, ref,
                                                           ref_inv)
        else:
            times, states = grid, flow[:, idx // 2]
            rel, in_window = ref_inv @ states, np.ones(grid.size, bool)
        arrival = direct_arrival(target, times, states)
        dist = direct_graph_distance(rel, target.b_pinv)
        miss = np.linalg.norm((target.q_f_inv @ states)[:, :, 0]
                              - np.eye(system.d)[0], axis=1)
        closest.append((np.min(miss), times[np.argmin(miss)],
                        target.residual(states[np.argmin(miss)]), dist))
        assert {k: record[k] for k in ("sample", "family", "seed",
                                       "arrival")} == {
            "sample": idx, "family": family, "seed": seed,
            "arrival": float(arrival) if np.isfinite(arrival) else None}
        if not np.isfinite(dist):
            assert record["graph_distance"] is None
            continue
        sizes = np.linalg.norm(_quick_log(rel).reshape(len(rel), -1)
                               @ target.b_pinv.T, axis=1)
        if in_window[np.argmax(sizes)]:
            assert record["graph_distance"] == dist
        else:
            after_window += 1
            assert record["graph_distance"] == pytest.approx(dist, rel=1e-11)
    assert report.verdict == "no counterexample"
    assert after_window > 0 or horizon == 1.0
    order = np.argsort([c[0] for c in closest], kind="stable")[:5]
    assert [e["sample"] for e in report.nearest] == order.tolist()
    for entry, idx in zip(report.nearest, order):
        miss, time, res, dist = closest[idx]
        assert entry["family"] == comps.family[idx] and entry["time"] == time
        assert entry["miss"] == pytest.approx(miss, rel=1e-9)
        assert entry["residual"] == pytest.approx(res, rel=1e-9)
        assert entry["graph_distance"] == report.records[idx]["graph_distance"]


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
    system, chart, trajectory, _ = _build_problem(config)
    target = TargetSpec(system, trajectory.q[-1], chart)
    grid = np.union1d(time_grid(1.1 * horizon, 0.02), [horizon])
    comps = _sample_competitors(system, horizon, 1.1 * horizon, 200, 0.1, 0)
    last = _band_flow(system, comps.coeff, horizon, np.eye(system.d),
                      grid)[0][-1]
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
    basis = system.algebra_basis
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
    arrival screen and the log head decide part of the states without a
    series log. On-target states 0.99 TARGET_TOL along A0 from the orbit
    still arrive, and a member whose two largest samples the log head
    ranks the wrong way round keeps its exact distance."""
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
    basis = system.algebra_basis
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
    assert target.arrival_time(times, states)[0].tolist() == arrive_expect
    assert target.arrival_time(times[0], states)[0].tolist() == shared_expect
    # the screen decides some of the states inside the log radius, and the
    # rest take the exact log
    inside = np.linalg.norm(rel - np.eye(system.d), axis=(2, 3)) < LOG_RADIUS
    assert logged[0] == logged[1] and 0 < logged[0] < inside[:-1].sum()
    logged.clear()
    dists = relative_distance(rel, target.b_pinv)
    assert 0 < sum(logged) < inside.all(axis=1).sum() * n
    for dist, expect in zip(dists, dist_expect):
        assert dist == pytest.approx(expect, rel=1e-15, abs=0.0)


def test_screen_premise_is_checked(dub3):
    """The hypothesis annihilator_reads_first_column checks that the
    annihilator rows of b_pinv read the first column of an algebra element
    isometrically, against the rounding d^2 eps per axis: a signed
    permutation of those rows keeps the premise, and a b_pinv whose
    annihilator rows take an orbit row breaks it."""
    chart = dubins_adapted_chart(dub3)
    bound = chart.n * dub3.d ** 2 * np.finfo(float).eps
    rows = np.arange(chart.n)
    kept = dataclasses.replace(chart)
    kept.b_pinv = chart.b_pinv[np.r_[rows[:chart.R], rows[:chart.R - 1:-1]]]
    kept.b_pinv[-1] *= -1.0
    for held in (chart, kept):
        check = hypothesis(dub3, held, "annihilator_reads_first_column")
        assert check.passed and check.detail == {"bound": bound}
    swapped = rows.copy()
    swapped[[chart.R - 1, chart.R]] = swapped[[chart.R, chart.R - 1]]
    broken = dataclasses.replace(chart)
    broken.b_pinv = chart.b_pinv[swapped]
    check = hypothesis(dub3, broken, "annihilator_reads_first_column")
    assert not check.passed and check.residual > 0.5


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_state_just_inside_target_tol_arrives(space):
    """A state whose annihilator coordinates are all 0.999 TARGET_TOL in
    size, pushed out to ||q_f^-1 q - I||_F = 0.89 along the orbit, misses
    e0 by about sqrt(N) TARGET_TOL, more than a screen at TARGET_TOL would
    let through; it passes the screen and arrives."""
    system, trajectory, target, _, _ = _sweep_problem(space, 4)
    q_f = trajectory.q[-1]
    basis = system.algebra_basis
    orbit = np.tensordot(np.ones(system.R), basis[:system.R], 1)
    ann = np.tensordot(0.999 * TARGET_TOL * np.ones(len(basis) - system.R),
                       basis[system.R:], 1)
    s = brentq(lambda a: np.linalg.norm(expm(a * orbit + ann)
                                        - np.eye(system.d)) - 0.89,
               0.0, 3.0 / np.linalg.norm(orbit))
    q = q_f @ expm(s * orbit + ann)
    assert 0.99 * TARGET_TOL < target.residual(q) <= TARGET_TOL
    assert target.screen(q[None, :, 0])[0] > 1.9 * TARGET_TOL
    assert target.arrival_time(np.array([[0.5]]), q[None, None])[0] == [0.5]


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_state_outside_screen_takes_no_log(space, monkeypatch):
    """A state whose first column misses e0 by just over sqrt(N)
    TARGET_TOL / (1 - LOG_RADIUS) never reaches `residual`; one just inside
    the bound does, and neither arrives."""
    system, trajectory, target, _, _ = _sweep_problem(space, 4)
    q_f = trajectory.q[-1]
    bound = np.sqrt(system.N) * TARGET_TOL / (1.0 - LOG_RADIUS)
    e0 = np.eye(system.d)[0]

    def at_miss(miss):
        s = brentq(lambda a: np.linalg.norm(expm(a * system.drift)[:, 0]
                                            - e0) - miss, 0.0, 1.0,
                   xtol=1e-300)
        return q_f @ expm(s * system.drift)

    reached = []
    residual = TargetSpec.residual

    def counting_residual(self, q):
        reached.append(len(q))
        return residual(self, q)

    monkeypatch.setattr(TargetSpec, "residual", counting_residual)
    for scale, states in ((1.0 + 1e-3, 0), (1.0 - 1e-3, 1)):
        reached.clear()
        q = at_miss(scale * bound)
        assert target.screen(q[None, :, 0])[0] == pytest.approx(
            scale * bound, rel=1e-9)
        assert target.arrival_time(np.array([[0.5]]), q[None, None])[0] \
            == [np.inf]
        assert sum(reached) == states


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_tallies_sum_to_n_samples(space):
    """Each family's tallies split its samples into outside the log radius,
    inadmissible, missed and arrived, with the early arrivals among the
    arrived; the families sum to n_samples. The emitted section has no
    records, and lists the competitors nearest the target in order."""
    system, trajectory, target, _, _ = _sweep_problem(space, 4)
    report = competitor_sweep(system, trajectory, target, n_samples=40)
    out = report.as_dict()
    assert "records" not in out and len(report.records) == 40
    tallies = out["tallies"]
    assert sum(t["sampled"] for t in tallies.values()) == 40
    for t in tallies.values():
        assert t["sampled"] == (t["outside_log_radius"] + t["inadmissible"]
                                + t["missed"] + t["arrived"])
        assert t["arrived_early"] <= t["arrived"]
    misses = [entry["miss"] for entry in out["nearest"]]
    assert len(misses) == 5 and misses == sorted(misses)
