"""Tests for the Goh-transformed second variation and its deciders."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from singcert import secondvar
from singcert.algebra import commutator, pairing
from singcert.chart import dubins_adapted_chart
from singcert.extremal import (adjoint_trajectory, dubins_initial_covector,
                               legendre_form)
from singcert.numerics import plane_exp, rk4_flow, rk4_stage_times
from singcert.secondvar import (
    SecondVariationProblem,
    assemble_lq,
    chart_field_jacobian,
    chart_field_jacobian_fd,
    coercivity_floor,
    conjugate_point_test,
    conjugate_point_trace,
    det_trace_to_csv,
    galerkin_assemble,
    galerkin_coercivity,
    iota_equivalence_check,
    lq_hamiltonian,
)
from singcert.systems import build_dubins_system


@pytest.fixture(scope="module")
def setup():
    sys_ = build_dubins_system("euclidean", 3)
    chart = dubins_adapted_chart(sys_)
    p0 = dubins_initial_covector(sys_)
    traj = adjoint_trajectory(sys_, p0, np.linspace(0.0, 1.0, 101))
    return sys_, chart, traj


@pytest.fixture(scope="module")
def lq(setup):
    sys_, chart, traj = setup
    return assemble_lq(sys_, traj, chart)


def synthetic_lq(a1: float, c_val: float = 1.0,
                 horizon: float = 1.0) -> SecondVariationProblem:
    """Minimal LQ family: one control, two states, flat direction at a1 = 1.

    The initial variation enters along the same direction the control
    integrates, so coercivity on the constrained space fails for a1 > 1
    while the fixed-initial-condition form stays positive. Its tables are
    ad = 0 (the data are constant), z0 = e_1 and rows = [[a1, 0], [0, 0]],
    so a = z0^T rows = (a1, 0). Gamma = 0, so the Jacobi flow is e^{t M}
    with M = U W, and M^2 = 0.
    """
    z0 = np.array([[1.0], [0.0]])
    rows = np.array([[a1, 0.0], [0.0, 0.0]])
    c = np.array([[c_val]])
    a = z0.T @ rows
    gen = np.vstack([-a.T, z0]) @ np.linalg.inv(-c) @ np.hstack([z0.T, a])
    return SecondVariationProblem(
        horizon=horizon, n=2, m=1, R=1, ad=np.zeros((2, 2)), z0=z0, rows=rows, c=c, lam=0.0,
        flow_rows=np.stack([gen, gen @ gen, gen @ gen @ gen])[:, 2:, 1:])


def test_chart_jacobian_matches_fd(setup):
    sys_, chart, traj = setup
    rng = np.random.default_rng(31)
    w = sum(rng.standard_normal() * b for b in chart.frame_algebra)
    exact = chart_field_jacobian(chart, w)
    fd = chart_field_jacobian_fd(chart, w)
    assert np.max(np.abs(exact - fd)) <= 1e-9


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_chart_jacobian_of_a_stack(space):
    """A stack of algebra elements gives each member's own Jacobian, and
    each agrees with the finite-difference oracle."""
    sys_ = build_dubins_system(space, 4)
    chart = dubins_adapted_chart(sys_)
    rng = np.random.default_rng(32)
    stack = np.einsum("kj,jab->kab", rng.standard_normal((3, chart.n)),
                      np.array(chart.frame_algebra))
    stack[1] = chart.frame_algebra[0]   # every coefficient but one is zero
    exact = chart_field_jacobian(chart, stack)
    assert exact.shape == (3, chart.n, chart.n)
    for w, jac in zip(stack, exact):
        assert np.array_equal(jac, chart_field_jacobian(chart, w))
        assert np.max(np.abs(jac - chart_field_jacobian_fd(chart, w))) <= 1e-9


def test_pullback_gdot_constant_euclidean(setup, lq):
    """Flat Dubins: the pulled-back gdot fields are the constant f_{0i}."""
    sys_, chart, traj = setup
    for t in traj.grid[::20]:
        z = lq.z_fn(t)
        for i in range(sys_.m):
            expect = np.zeros(chart.n)
            expect[chart.R + i] = 1.0
            assert np.max(np.abs(z[:, i] - expect)) <= 1e-12


def test_pullback_gdot_is_time_derivative():
    """Z(t) e_i is the time derivative of the pulled-back field Ad_M(t) A_i."""
    h = 1e-4
    for space in ("euclidean", "sphere"):
        sys_ = build_dubins_system(space, 3)
        chart = dubins_adapted_chart(sys_)
        traj = adjoint_trajectory(sys_, dubins_initial_covector(sys_),
                                  np.linspace(0.0, 1.0, 11))
        lq = assemble_lq(sys_, traj, chart)
        origin = np.zeros(chart.n)

        def pulled_back(t, i):
            mk = expm(t * sys_.drift)
            return chart.solve_in_frame(
                origin, mk @ sys_.controlled[i] @ np.linalg.inv(mk))

        for t in (0.1, 0.5, 0.9):
            z = lq.z_fn(t)
            for i in range(sys_.m):
                fd = (pulled_back(t + h, i) - pulled_back(t - h, i)) / (2 * h)
                assert np.max(np.abs(fd - z[:, i])) <= 1e-7, (space, t, i)


def direct_lq(sys_, chart, p0, t):
    """Z, C, a at one time node by the per-node formula: conjugate by
    expm(+-t A0), take frame coordinates at the chart origin, apply the
    chart Jacobian and pair with p0."""
    mk, mk_inv = expm(t * sys_.drift), expm(-t * sys_.drift)
    origin = np.zeros(chart.n)
    m = sys_.m
    z, c, a = np.zeros((chart.n, m)), np.zeros((m, m)), np.zeros((m, chart.n))
    for i in range(m):
        ad_br = mk @ commutator(sys_.drift, sys_.controlled[i]) @ mk_inv
        z[:, i] = chart.solve_in_frame(origin, ad_br)
        a[i] = -(chart.p_hat @ chart_field_jacobian(chart, ad_br))
        for j in range(m):
            c[i, j] = -pairing(p0, mk @ sys_.bracket_matrix(
                (i + 1, (j + 1, 0))) @ mk_inv)
    return z, c, a


@pytest.mark.parametrize("space", ["sphere", "hyperbolic"])
@pytest.mark.parametrize("n_dim", [3, 4])
def test_tabulated_lq_matches_direct_formula(space, n_dim):
    """The once-per-chart tables reproduce the per-node formula."""
    sys_ = build_dubins_system(space, n_dim)
    chart = dubins_adapted_chart(sys_)
    traj = adjoint_trajectory(sys_, dubins_initial_covector(sys_),
                              np.linspace(0.0, 1.0, 11))
    lq = assemble_lq(sys_, traj, chart)
    for t in (0.0, 0.37, 1.0):
        z, c, a = direct_lq(sys_, chart, traj.p[0], t)
        for got, want in ((lq.z_fn(t), z), (lq.c_fn(t), c), (lq.a_fn(t), a)):
            assert np.max(np.abs(got - want)) <= 1e-12, (space, n_dim, t)


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
@pytest.mark.parametrize("n_dim", [3, 4])
def test_stacked_coefficients_match_scalar_views(space, n_dim):
    """One evaluation on unsorted, repeated times gives, row by row, the
    scalar views' Z, C and a bit for bit."""
    lq = dubins_lq(space, n_dim, 1.0)
    ts = np.array([0.7, 0.0, 0.37, 1.0, 0.37, 0.7, 0.125, 0.0])
    z, c, a = lq.coefficients(ts)
    assert z.shape == (ts.size, lq.n, lq.m)
    assert c.shape == (ts.size, lq.m, lq.m)
    assert a.shape == (ts.size, lq.m, lq.n)
    for k, t in enumerate(ts):
        assert np.array_equal(z[k], lq.z_fn(t))
        assert np.array_equal(c[k], lq.c_fn(t))
        assert np.array_equal(a[k], lq.a_fn(t))


def ivp_form_values(problem, eps, w):
    """J'' = int_0^H 1/2 w^T C w + w^T a zeta dt with zeta' = Z w and
    zeta(0) = (eps, 0), the integral of the integrand's magnitude, and
    zeta(H), in the original frame: solve_ivp (DOP853, rtol 1e-13) piece
    by piece, for a stack of S variations eps (S, R) and piecewise-constant
    w (S, K, m) at once."""
    n, count = problem.n, len(eps)
    edges = np.linspace(0.0, problem.horizon, w.shape[1] + 1)
    y = np.concatenate([eps, np.zeros((count, n - problem.R + 2))], axis=1)
    for k in range(w.shape[1]):
        wk = w[:, k]

        def rhs(t, flat, wk=wk):
            z, c, a = (x[0] for x in problem.coefficients(np.array([t])))
            zeta = flat.reshape(count, n + 2)[:, :n]
            cost = 0.5 * np.einsum("si,ij,sj->s", wk, c, wk) + \
                np.einsum("si,ij,sj->s", wk, a, zeta)
            return np.concatenate([wk @ z.T, cost[:, None],
                                   np.abs(cost)[:, None]], axis=1).ravel()

        y = solve_ivp(rhs, edges[k:k + 2], y.ravel(), method="DOP853",
                      rtol=1e-13, atol=1e-15).y[:, -1].reshape(count, n + 2)
    return y[:, n], y[:, n + 1], y[:, :n]


@pytest.mark.parametrize("case", [("euclidean", 3), ("euclidean", 4),
                                  ("sphere", 3), ("sphere", 4),
                                  ("hyperbolic", 3), ("hyperbolic", 4),
                                  "synthetic"])
def test_galerkin_form_matches_ivp_oracle(case):
    """On random (eps, w) with zeta(H) = 0 the exact moving-frame form is
    J'' of the original frame, at H = 1 and 5, to 1e-12 relative to the
    integral of the integrand's magnitude. The oracle sums that integrand,
    which on the hyperbolic form at H = 5 cancels down to about a
    thousandth of it, so the oracle's own error scales with that integral,
    not with |J''|. The gram matrix is diag(1, .., 1, h, .., h)."""
    rng = np.random.default_rng(36)
    for horizon in (1.0, 5.0):
        prob = synthetic_lq(0.5, horizon=horizon) if case == "synthetic" \
            else dubins_lq(*case, horizon)
        k_pieces, r = 8, prob.R
        asm = galerkin_assemble(prob, k_pieces)
        assert np.array_equal(asm.gram, [1.0] * r + [horizon / k_pieces]
                              * (asm.gram.size - r))
        _, sing, vt = np.linalg.svd(asm.constraint)
        kernel = vt[int(np.sum(sing > 1e-10 * sing[0])):].T
        v = rng.standard_normal((3, kernel.shape[1])) @ kernel.T
        want, scale, zeta_end = ivp_form_values(
            prob, v[:, :r], v[:, r:].reshape(3, k_pieces, -1))
        assert np.max(np.abs(zeta_end)) <= 1e-10 * np.max(np.abs(v))
        got = np.array([asm.value(x) for x in v])
        assert np.all(np.abs(got - want) <= 1e-12 * scale), \
            (case, horizon, got, want)


def test_lq_data_dubins(lq, setup):
    sys_, chart, _ = setup
    for t in (0.0, 0.4, 1.0):
        assert np.max(np.abs(lq.c_fn(t) - np.eye(sys_.m))) <= 1e-12
        z = np.zeros((chart.n, sys_.m))
        for i in range(sys_.m):
            z[chart.R + i, i] = 1.0
        assert np.max(np.abs(lq.z_fn(t) - z)) <= 1e-12
        a = np.zeros((sys_.m, chart.n))
        for i in range(sys_.m):
            a[i, i] = -1.0
        assert np.max(np.abs(lq.a_fn(t) - a)) <= 1e-12


def test_j_equals_half_norm_on_constrained_space(lq):
    """J'' = 0.5 ||w||^2 for epsilon = 0 and mean-zero piecewise w."""
    k_pieces = 32
    asm = galerkin_assemble(lq, k_pieces)
    rng = np.random.default_rng(33)
    h = lq.horizon / k_pieces
    for _ in range(20):
        w = rng.standard_normal((k_pieces, lq.m))
        w -= w.mean(axis=0)
        v = np.concatenate([np.zeros(lq.R), w.ravel()])
        expect = 0.5 * h * np.sum(w ** 2)
        assert asm.value(v) == pytest.approx(expect, abs=1e-10)


def test_long_hyperbolic_galerkin_level_matches_mpmath():
    """The K = 16 level at hyperbolic N = 3, H = 15 is the 60-digit value
    0.00588873777289651.. to 1e-8 relative.

    That value came from mpmath (not a dependency) at mp.dps = 60: the
    exact tables of assemble_lq, rounded to their integers (ad, z0 =
    ad[:, :m], rows, C = I, eps in the first R coordinates); E, F and G as the top block
    row of mp.expm(h [[-ad, I, 0], [0, 0, I], [0, 0, 0]]), h = H/16; the
    form and constraint assembled block by block as galerkin_assemble
    describes, with E^k as powers of E; and the least eigenvalue, by
    mp.eigsy, of the gram-scaled form on the null space of the scaled
    constraint from mp.svd_r (rank 5).
    """
    report = galerkin_coercivity(dubins_lq("hyperbolic", 3, 15.0), 16)
    level = report.refinements[0]
    assert level["K"] == 16 and level["constraint_rank"] == 5
    assert level["margin"] == pytest.approx(0.0058887377728965113, rel=1e-8)


def test_galerkin_reason_names_the_failed_inequality(monkeypatch):
    """A not-coercive Galerkin report names the first inequality that
    failed, with its value and threshold: a level under the floor, or
    else the settle test (the last level under half the first); a
    coercive report has no reason."""
    low = galerkin_coercivity(synthetic_lq(1.05), 16)
    assert not low.coercive
    assert low.metadata["reason"] == (
        f"the margin {low.refinements[0]['margin']:.6g} at K = 16 is under "
        f"the floor {low.metadata['floor']:.6g}")
    assert "reason" not in galerkin_coercivity(synthetic_lq(0.5), 16).metadata
    levels = iter([(0.4, 1), (0.3, 1), (0.19, 1)])
    monkeypatch.setattr(secondvar, "_constrained_minimum",
                        lambda asm: next(levels))
    unsettled = galerkin_coercivity(synthetic_lq(0.5), 8)
    assert not unsettled.coercive and unsettled.margin == 0.19
    assert unsettled.metadata["reason"] == (
        "the margins do not settle: 0.19 at K = 32 is under half the 0.4 "
        "at K = 8")


def test_galerkin_dubins_margin_half(lq):
    report = galerkin_coercivity(lq, 16)
    assert report.coercive
    for r in report.refinements:
        assert 0.45 <= r["margin"] <= 0.5 + 1e-12
    # the drift row of the endpoint constraint is unreachable, so the
    # constraint matrix is rank deficient; reported, not fatal
    assert report.refinements[0]["constraint_rank"] < lq.n


def test_galerkin_margins_monotone_in_k(lq):
    asm_margins = []
    for k in (8, 16, 32):
        rep = galerkin_coercivity(lq, k)
        asm_margins.append(rep.refinements[0]["margin"])
    assert asm_margins[0] >= asm_margins[1] - 1e-12
    assert asm_margins[1] >= asm_margins[2] - 1e-12


def test_conjugate_dubins_coercive(lq):
    report = conjugate_point_test(lq)
    assert report.coercive
    assert report.margin >= 0.1
    # det trace is (1 + rho t)^m in this chart: monotone increasing
    assert np.all(np.diff(report.det_trace) >= -1e-12)


def test_conjugate_trace_closed_form(lq):
    rho = 0.75
    grid, (dets,) = conjugate_point_trace(lq, [rho], n_steps=100)
    expect = (1.0 + rho * grid) ** lq.m
    assert np.max(np.abs(dets - expect)) <= 1e-8


def direct_traces(problem, rhos, n_steps=200):
    """det X(t) of each rho on the n_steps grid, by its own RK4 flow from
    (Omega0(rho), I) on a grid 8 times finer, the flows stacked in one
    rk4_flow call, with the scalar views read once per time."""
    n = problem.n
    grid = np.linspace(0.0, problem.horizon, 8 * n_steps + 1)
    times = rk4_stage_times(grid)
    seen = {}

    def lq_at(t):
        if t not in seen:
            seen[t] = (problem.z_fn(t), problem.a_fn(t),
                       np.linalg.inv(-problem.c_fn(t)))
        return seen[t]

    def rhs(i, y):
        om, xx = y[:, 0], y[:, 1]
        z_t, a_t, l_inv = lq_at(times[i])
        b = l_inv @ (z_t.T @ om + a_t @ xx)
        return np.stack([-a_t.T @ b, z_t @ b], axis=1)

    y0 = np.zeros((len(rhos), 2, n, n))
    for k, rho in enumerate(rhos):
        for j in range(problem.R, n):
            y0[k, 0, j, j] = -rho
        y0[k, 1] = np.eye(n)
    states = rk4_flow(rhs, grid, y0)[::8]
    return list(np.linalg.det(states[:, :, 1]).T)


def dubins_lq(space, n_dim, horizon):
    sys_ = build_dubins_system(space, n_dim)
    traj = adjoint_trajectory(sys_, dubins_initial_covector(sys_),
                              np.linspace(0.0, horizon, 11))
    return assemble_lq(sys_, traj, dubins_adapted_chart(sys_))


@pytest.mark.parametrize("case", [("euclidean", 3, 1.0), ("sphere", 3, 3.3),
                                  ("hyperbolic", 4, 1.0), "synthetic"])
def test_conjugate_trace_matches_per_rho_flows(case):
    """The one-flow sweep gives every rho's det row of its own flow."""
    prob = synthetic_lq(1.05) if case == "synthetic" else dubins_lq(*case)
    rho_grid = [2.0 ** k for k in range(-6, 7)]
    _, dets = conjugate_point_trace(prob, rho_grid)
    assert dets.shape == (len(rho_grid), 201)
    for rho, row, want in zip(rho_grid, dets, direct_traces(prob, rho_grid)):
        assert np.max(np.abs(row - want)) <= 1e-10 * np.max(np.abs(want)), \
            (case, rho)


def rk4_jacobi(problem, grid):
    """The fundamental matrix of the Jacobi system on a grid, by rk4_flow
    from I, with U W read from one evaluation of the coefficients at every
    stage time."""
    z, c, a = problem.coefficients(rk4_stage_times(grid))
    gen = np.concatenate([-np.swapaxes(a, -1, -2), z], axis=-2) @ \
        np.linalg.solve(-c, np.concatenate([np.swapaxes(z, -1, -2), a],
                                           axis=-1))
    return rk4_flow(lambda i, y: gen[i] @ y, grid, np.eye(2 * problem.n))


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
@pytest.mark.parametrize("n_dim", [4, 5])
@pytest.mark.parametrize("horizon", [1.0, 5.0])
def test_closed_form_jacobi_flow_matches_rk4(space, n_dim, horizon):
    """Phi(t) = e^{t Gamma} e^{t M} is the flow of the Jacobi system: its
    base rows n: and columns R:, all the conjugate-point test reads, agree
    with RK4 on 1,600 steps to 1e-10 relative at every step."""
    prob = dubins_lq(space, n_dim, horizon)
    n, r = prob.n, prob.R
    grid = np.linspace(0.0, horizon, 1601)
    want = rk4_jacobi(prob, grid)[:, n:, r:]
    got = prob.base_rows(grid)
    assert got.shape == (grid.size, n, 2 * n - r)
    assert np.array_equal(got[0], np.eye(2 * n)[n:, r:])
    scale = np.max(np.abs(want), axis=(1, 2))
    assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= 1e-10 * scale)


def test_non_coercive_report_holds_its_rho_row():
    """A not-coercive report carries the det row of the rho it reports,
    the one with the largest ratio (here inside the grid, not at an end)."""
    prob = dubins_lq("sphere", 3, 5.0)
    report = conjugate_point_test(prob, det_floor=0.2)
    assert not report.coercive
    ratios = [r["min_det_ratio"] for r in report.refinements]
    k = int(np.argmax(ratios))
    assert 0 < k < len(ratios) - 1
    assert report.rho == report.refinements[k]["rho"]
    assert report.margin == ratios[k]
    want, other = direct_traces(
        prob, [report.rho, report.refinements[k + 1]["rho"]])
    assert np.max(np.abs(report.det_trace - want)) <= \
        1e-10 * np.max(np.abs(want))
    assert np.max(np.abs(other - want)) > 1e-3 * np.max(np.abs(want))


def test_overflowed_det_trace_never_passes(lq):
    """A rho whose det trace overflows has no ratio and is not coercive;
    beside a finite rho it leaves the sweep to that rho."""
    report = conjugate_point_test(lq, rho_grid=[1e308])
    assert not report.coercive
    assert np.isnan(report.margin)
    assert np.isnan(report.refinements[0]["min_det_ratio"])
    both = conjugate_point_test(lq, rho_grid=[1e308, 1.0])
    assert both.coercive and both.rho == 1.0
    assert both.margin == conjugate_point_test(lq, rho_grid=[1.0]).margin


def test_methods_agree_on_dubins(lq):
    gal = galerkin_coercivity(lq, 16)
    conj = conjugate_point_test(lq)
    assert gal.verdict == conj.verdict == "coercive"


def test_synthetic_coercive_case():
    prob = synthetic_lq(0.5)
    gal = galerkin_coercivity(prob, 16)
    conj = conjugate_point_test(prob)
    assert gal.coercive and conj.coercive
    # analytic margin: min over mixed directions of (1 - a1)/4
    assert gal.margin == pytest.approx((1.0 - 0.5) / 4.0, abs=1e-6)


def test_synthetic_non_coercive_case():
    prob = synthetic_lq(1.05)
    gal = galerkin_coercivity(prob, 16)
    conj = conjugate_point_test(prob)
    assert not gal.coercive
    assert gal.margin < 0.0
    assert not conj.coercive
    # the degeneracy is rho independent: det hits zero for every rho
    for entry in conj.refinements:
        assert entry["min_det_ratio"] <= 0.05


def test_synthetic_marginal_case_det_touches_zero():
    prob = synthetic_lq(1.0)
    _, (dets,) = conjugate_point_trace(prob, [0.5], n_steps=200)
    assert dets[-1] == pytest.approx(0.0, abs=1e-10)


def test_sign_flipped_legendre_gives_negative_margin():
    prob = synthetic_lq(0.0, c_val=-1.0)
    report = galerkin_coercivity(prob, 16)
    assert not report.coercive
    assert report.margin < 0.0


def test_lq_hamiltonian_dubins_closed_form(lq):
    rng = np.random.default_rng(35)
    omega = rng.standard_normal(lq.n)
    dx = rng.standard_normal(lq.n)
    b = np.array([omega[lq.R + i] - dx[i] for i in range(lq.m)])
    expect = -0.5 * float(b @ b)
    assert lq_hamiltonian(lq, 0.3, omega, dx) == pytest.approx(expect, abs=1e-12)


def test_iota_equivalence(setup, lq):
    sys_, chart, traj = setup
    report = iota_equivalence_check(lq, sys_, chart, traj, n_samples=5,
                                    h=1e-4, seed=0)
    assert report["max_rel_error"] <= 1e-3
    assert report["min_order"] >= 1.8


def test_det_trace_csv(tmp_path, lq):
    report = conjugate_point_test(lq, n_steps=50)
    path = tmp_path / "det.csv"
    det_trace_to_csv(report, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,det,abs_det_ratio"
    assert len(lines) == 52


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_lq_transport_is_plane_exp(space, n):
    """ad_A0^3 = lam ad_A0 with lam = tr(A0^2)/2 on every default, so the
    closed-form transport equals scipy's expm(t ad) for 0 <= t <= 5."""
    sys_ = build_dubins_system(space, n)
    chart = dubins_adapted_chart(sys_)
    origin = np.zeros(chart.n)
    ad = chart.solve_in_frame(origin, np.array(
        [commutator(sys_.drift, b) for b in chart.frame_algebra])).T
    lam = 0.5 * np.trace(sys_.drift @ sys_.drift)
    assert np.max(np.abs(ad @ ad @ ad - lam * ad)) <= 1e-14
    ts = np.linspace(0.0, 5.0, 11)
    ref = expm(ts[:, None, None] * ad)
    got = plane_exp(ts[:, None, None] * ad, lam * ts ** 2)
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=(1, 2)))
    assert np.all(np.max(np.abs(got - ref), axis=(1, 2)) <= 1e-12 * scale)


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_lq_weight_is_minus_the_legendre_form_at_p0(space, n):
    """C is the constant -legendre_form(p(0)) (pi0 ad = 0), read exactly at
    every time, and the coercivity floor is 1e-4 times its Frobenius norm."""
    sys_ = build_dubins_system(space, n)
    traj = adjoint_trajectory(sys_, dubins_initial_covector(sys_),
                              np.linspace(0.0, 1.0, 101))
    lq = assemble_lq(sys_, traj, dubins_adapted_chart(sys_))
    want = -legendre_form(sys_, traj.p[0])
    c = lq.coefficients(np.linspace(0.0, lq.horizon, 17))[1]
    assert c.shape == (17, sys_.m, sys_.m)
    assert np.array_equal(c, np.broadcast_to(want, c.shape))
    assert coercivity_floor(lq) == 1e-4 * np.linalg.norm(want)


def unit_arc(space="sphere"):
    sys_ = build_dubins_system(space, 3)
    chart = dubins_adapted_chart(sys_)
    traj = adjoint_trajectory(sys_, dubins_initial_covector(sys_),
                              np.linspace(0.0, 1.0, 11))
    return sys_, chart, traj


def test_assemble_lq_rejects_two_plane_drift():
    """A drift rotating two planes has no closed-form transport: Gamma^3 =
    lam Gamma fails. M^4 = lam M^2 fails with it, so this premise is not
    broken alone; it is checked first."""
    sys_, chart, traj = unit_arc()
    two_plane = dataclasses.replace(
        sys_, drift=sys_.drift + sys_.bracket_matrix((1, 2)))
    with pytest.raises(np.linalg.LinAlgError, match="single-plane"):
        assemble_lq(two_plane, traj, chart)


def test_assemble_lq_rejects_a_moving_legendre_form():
    """A covector whose pairings are not fixed by ad_A0 makes C move along
    the arc: pi0 ad = 0 fails, and it alone."""
    sys_, chart, traj = unit_arc()
    moved = dataclasses.replace(traj, p=traj.p + 0.1 * chart.frame_algebra[0])
    with pytest.raises(np.linalg.LinAlgError, match=r"premise pi0 ad = 0 "):
        assemble_lq(sys_, moved, chart)


def test_assemble_lq_rejects_rows_off_the_transport():
    """A chart covector whose rows are not transported by ad breaks
    ad^T D + D ad = 0; on the Euclidean form it breaks that premise
    alone (M^4 = 0 still holds)."""
    sys_, chart, traj = unit_arc("euclidean")
    p_hat = chart.p_hat.copy()
    p_hat[3] += 0.1
    tilted = dataclasses.replace(chart, p_hat=p_hat)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"premise ad\^T D \+ D ad = 0 "):
        assemble_lq(sys_, traj, tilted)


def test_assemble_lq_rejects_a_flipped_drift():
    """The flipped drift is not an extremal: its M has eigenvalues
    +-sqrt(2 lam) beside +-sqrt(lam), so M^4 = lam M^2 fails, and it
    alone."""
    sys_, chart, traj = unit_arc()
    flipped = dataclasses.replace(sys_, drift=-sys_.drift)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"premise M\^4 = lam M\^2 "):
        assemble_lq(flipped, traj, dubins_adapted_chart(flipped))
