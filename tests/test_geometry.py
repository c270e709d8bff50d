"""Tests for the singular-surface geometry and the certificate."""

import numpy as np
import pytest
from scipy.linalg import expm

from singcert import chart as chart_module
from singcert import geometry as geometry_module
from singcert.chart import dubins_adapted_chart
from singcert.extremal import (
    adjoint_trajectory,
    dubins_initial_covector,
    hogc_residual,
    s_residual,
)
from singcert.geometry import (
    GroupGeometry,
    ProjectionError,
    certificate_check,
    flow_samples_to_csv,
)
from singcert.numerics import rk4_flow
from singcert.pipeline import run_check
from singcert.systems import build_dubins_system


@pytest.fixture(scope="module")
def setup():
    sys_ = build_dubins_system("euclidean", 3)
    p0 = dubins_initial_covector(sys_)
    traj = adjoint_trajectory(sys_, p0, np.linspace(0, 1, 101))
    return sys_, GroupGeometry(sys_), traj


def sigma_sample(chart, rng, scale=0.05):
    """Random covector on Sigma near the reference initial point."""
    x = scale * rng.standard_normal(chart.n)
    y = np.zeros(chart.n)
    y[chart.R:] = chart.p_hat[chart.R:] + scale * rng.standard_normal(
        chart.n - chart.R)
    return x, chart.covector_from_chart(x, y)


def hamiltonian_direction(p, a):
    """Covector component of the Hamiltonian field of F_A at p (stacks
    too)."""
    a_t = np.swapaxes(a, -1, -2)
    return a_t @ p - p @ a_t


def rk4_super_hamiltonian_flow(geom, q0, p0, grid):
    """The canonical flow of H_0 by RK4 on the grid, from (S, d, d) stacks
    q0 and p0: one-step rk4_flow calls, g projected back onto the group
    before the next step. The oracle for the closed-form flow, which holds
    only on Sigma."""

    def rhs(i, y):
        mh = geom.grad_h0(y[:, 1])
        return np.stack([y[:, 0] @ mh, hamiltonian_direction(y[:, 1], mh)],
                        axis=1)

    y = np.stack([q0, p0], axis=1)
    states = [y]
    for k in range(grid.size - 1):
        y = rk4_flow(rhs, grid[k:k + 2], y)[-1]
        y[:, 0] = geom.system.project_to_group(y[:, 0])
        states.append(y)
    states = np.array(states)
    return states[:, :, 0], states[:, :, 1]


def psi(geom, p, t_vec):
    """Time-1 flow of sum t_i F_i on covectors, by exact exponentials: the
    transport the projection onto S undoes."""
    e = expm(np.tensordot(t_vec, geom.ai, axes=1))
    return e.T @ p @ np.linalg.inv(e).T


def test_psi_preserves_sigma(setup):
    """The projection moves a Sigma point along the F_i flows, which keep
    it on Sigma, and lands on S; a stack projects member by member."""
    sys_, geom, traj = setup
    chart = dubins_adapted_chart(sys_)
    rng = np.random.default_rng(21)
    ps = np.array([sigma_sample(chart, rng)[1] for _ in range(5)])
    singles = []
    for p in ps:
        _, moved, res = geom.project(p)
        assert res <= 1e-12
        assert hogc_residual(sys_, moved) <= 1e-10
        assert s_residual(sys_, moved) <= 1e-10
        singles.append(moved)
    assert np.max(np.abs(geom.project(ps)[1] - np.array(singles))) <= 1e-14
    assert np.max(np.abs(geom.chi(ps) - [geom.chi(p) for p in ps])) <= 1e-14


def test_psi_derivative_matches_hamiltonian_field(setup):
    """d psi / d t_i at 0 equals the F_i Hamiltonian direction."""
    _, geom, traj = setup
    p = traj.p[3]
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (psi(geom, p, e) - psi(geom, p, -e)) / (2 * h)
        exact = hamiltonian_direction(p, geom.ai[i])
        assert np.allclose(fd, exact, atol=1e-8)


def test_phi_fixed_point_on_s(setup):
    _, geom, traj = setup
    theta, moved, _ = geom.project(traj.p[40])
    assert np.max(np.abs(theta)) <= 1e-12
    assert np.allclose(moved, traj.p[40], atol=1e-12)


def test_phi_roundtrip_through_psi(setup):
    """Projection recovers a psi-displaced S-point and theta = -t_vec."""
    _, geom, traj = setup
    rng = np.random.default_rng(22)
    base = traj.p[10]
    for _ in range(5):
        t_vec = rng.uniform(-0.08, 0.08, 2)
        theta, moved, res = geom.project(psi(geom, base, t_vec))
        assert np.max(np.abs(theta + t_vec)) <= 1e-9
        assert np.max(np.abs(moved - base)) <= 1e-9
        assert res <= 1e-12


def test_phi_idempotent(setup):
    _, geom, traj = setup
    once = geom.project(psi(geom, traj.p[0], np.array([0.05, -0.03])))
    twice = geom.project(once[1])
    assert np.max(np.abs(twice[1] - once[1])) <= 1e-10


def test_phi_rejects_indefinite_legendre(setup):
    sys_, geom, _ = setup
    with pytest.raises(ProjectionError):
        geom.project(-dubins_initial_covector(sys_))


def test_chi_zero_on_s(setup):
    _, geom, traj = setup
    for p in traj.p[::25]:
        assert abs(geom.chi(p)) <= 1e-10


def test_chi_nonnegative_on_sigma(setup):
    sys_, geom, _ = setup
    chart = dubins_adapted_chart(sys_)
    rng = np.random.default_rng(23)
    for _ in range(30):
        _, p = sigma_sample(chart, rng)
        assert geom.chi(p) >= -1e-10


def test_chi_quadratic_expansion(setup):
    """chi(psi(l, t)) = |t|^2 / 2 + O(|t|^3) on the Dubins extremal."""
    _, geom, traj = setup
    base = traj.p[0]
    rng = np.random.default_rng(24)
    direction = rng.standard_normal(2)
    direction /= np.linalg.norm(direction)
    for s in (1e-2, 5e-3):
        val = geom.chi(psi(geom, base, s * direction))
        assert val == pytest.approx(0.5 * s ** 2, rel=5e-2)


def test_chi_first_differences_vanish_on_s(setup):
    """dchi = 0 on S: first differences shrink at order >= 1.9."""
    _, geom, traj = setup
    p = traj.p[15]
    rng = np.random.default_rng(25)
    dp = rng.standard_normal(p.shape)

    def first_diff(h):
        return abs(geom.chi(p + h * dp) - geom.chi(p - h * dp)) / (2 * h)

    d1, d2 = first_diff(1e-3), first_diff(5e-4)
    assert np.log2(d1 / d2) >= 1.9


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_grad_h0_matches_central_differences(space):
    """<grad_h0(p), dp> is the derivative of H_0 = chi + <p, A_0> along dp
    at Sigma points off S."""
    sys_ = build_dubins_system(space, 3)
    geom = GroupGeometry(sys_)
    chart = dubins_adapted_chart(sys_)
    rng = np.random.default_rng(30)
    h = 1e-5

    def h0(p):
        return geom.chi(p) + np.tensordot(p, sys_.drift, axes=2)

    for _ in range(3):
        _, p = sigma_sample(chart, rng)
        assert s_residual(sys_, p) >= 1e-3
        dp = rng.standard_normal(p.shape)
        grad = geom.grad_h0(p)
        fd = (h0(p + h * dp) - h0(p - h * dp)) / (2 * h)
        assert np.tensordot(grad, dp, axes=2) == pytest.approx(fd, abs=2e-9)


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_projection_takes_the_maximum_of_f0(space):
    """Far from S the projection still lands on the maximum of F_0 over
    the orbit: chi >= 0, and <p, grad_h0(p)> is at least <p, Ad_g A_0>
    for g = exp(sum t_i A_i) anywhere on the orbit."""
    sys_ = build_dubins_system(space, 5)
    geom = GroupGeometry(sys_)
    chart = dubins_adapted_chart(sys_)
    rng = np.random.default_rng(1)
    ps = np.array([sigma_sample(chart, rng, scale=0.3)[1] for _ in range(40)])
    assert np.min(geom.chi(ps)) >= -1e-10
    top = np.einsum("sab,sab->s", ps, geom.grad_h0(ps))
    g = expm(np.tensordot(rng.uniform(-np.pi, np.pi, (8, geom.m)), geom.ai,
                          axes=1))
    ad = g @ sys_.drift @ np.linalg.inv(g)
    values = np.tensordot(ps, ad, axes=([1, 2], [1, 2]))
    assert np.all(values <= top[:, None] + 1e-10)


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_rotation_is_the_exponential_of_theta(space):
    """The Rodrigues rotation is exp(sum theta_i A_i), it turns e_1 onto
    w = c/|c|, and no Newton step is taken; a covector with c_perp = 0 and
    c_1 < 0 turns by pi."""
    sys_ = build_dubins_system(space, 4)
    geom = GroupGeometry(sys_)
    rng = np.random.default_rng(32)
    ps = rng.standard_normal((6, sys_.d, sys_.d))
    ps[-1] = 0.0
    ps[-1, 1, 0] = -2.0
    theta, e, steps, w = geom.solve_theta(ps)
    assert steps == 0
    assert np.linalg.norm(theta[-1]) == pytest.approx(np.pi)
    assert np.max(np.abs(e - expm(np.tensordot(theta, geom.ai, axes=1)))) \
        <= 1e-14
    assert np.max(np.abs(e[:, 1:, 1] - w)) <= 1e-15


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_projection_needs_finite_nonzero_c(setup, bad):
    """Where c(p) is zero or not finite the projection onto S is
    undefined, for a single covector and inside a stack."""
    _, geom, traj = setup
    p = traj.p[0].copy()
    p[1:, 0] = bad
    p[0, 1:] = bad
    for arg in (p, np.array([traj.p[0], p])):
        with pytest.raises(ProjectionError):
            geom.solve_theta(arg)


def test_theta_derivative_pairing(setup):
    """<d theta_i, F_j-direction> = -delta_ij at S-points, to O(h^2)."""
    _, geom, traj = setup
    p = traj.p[20]
    h = 1e-5
    for j in range(2):
        dp = hamiltonian_direction(p, geom.ai[j])
        tp, *_ = geom.solve_theta(p + h * dp)
        tm, *_ = geom.solve_theta(p - h * dp)
        d_theta = (tp - tm) / (2 * h)
        expect = np.zeros(2)
        expect[j] = -1.0
        assert np.allclose(d_theta, expect, atol=1e-8)


def flow_one(geom, q, p, grid):
    """The super-Hamiltonian flow of one point: (T, d, d) arrays q and p."""
    q_t, p_t = geom.super_hamiltonian_flow(q[None], p[None], grid)
    return q_t[:, 0], p_t[:, 0]


def test_super_hamiltonian_reproduces_reference(setup):
    sys_, geom, traj = setup
    q, p = flow_one(geom, traj.q[0], traj.p[0], traj.grid)
    assert np.max(hogc_residual(sys_, p)) <= 1e-6
    for k in range(0, 101, 20):
        assert np.max(np.abs(p[k] - traj.p[k])) <= 1e-8
        assert np.max(np.abs(q[k] - traj.q[k])) <= 1e-8


def test_super_hamiltonian_on_s_equals_drift_flow(setup):
    """On S the flow coincides with the singular-feedback field flow."""
    sys_, geom, traj = setup
    chart = dubins_adapted_chart(sys_)
    rng = np.random.default_rng(27)
    x, p_sigma = sigma_sample(chart, rng, scale=0.03)
    p = geom.project(p_sigma)[1]
    q0 = chart.forward(x)
    assert s_residual(sys_, p) <= 1e-10
    grid = np.linspace(0, 0.5, 26)
    q, p_t = flow_one(geom, q0, p, grid)
    m_end = expm(grid[-1] * sys_.drift)
    expect_p = m_end.T @ p @ np.linalg.inv(m_end).T
    assert np.max(np.abs(p_t[-1] - expect_p)) <= 1e-9
    assert np.max(np.abs(q[-1] - q0 @ m_end)) <= 1e-9


def sigma_seeds(space, noise=0.0):
    """Four Sigma points of the N=4 system on the form, their covectors
    moved off Sigma by noise of that size when it is nonzero."""
    sys_ = build_dubins_system(space, 4)
    chart = dubins_adapted_chart(sys_)
    rng = np.random.default_rng(31)
    q0, p0 = [], []
    for _ in range(4):
        x, p = sigma_sample(chart, rng, scale=0.03)
        q0.append(chart.forward(x))
        p0.append(p + noise * rng.standard_normal(p.shape))
    return GroupGeometry(sys_), np.array(q0), np.array(p0)


@pytest.mark.parametrize("space", ["sphere", "hyperbolic"])
def test_closed_form_flow_matches_rk4_on_sigma(space):
    """On Sigma the closed-form flow is the RK4 flow with group projection
    in the limit: 1e-13 apart at 512 steps, 1e-8 at 32."""
    geom, q0, p0 = sigma_seeds(space)
    for steps, tol in ((512, 1e-11), (32, 1e-7)):
        grid = np.linspace(0.0, 1.0, steps + 1)
        q, p = geom.super_hamiltonian_flow(q0, p0, grid)
        q_rk, p_rk = rk4_super_hamiltonian_flow(geom, q0, p0, grid)
        assert np.max(np.abs(q - q_rk)) <= tol
        assert np.max(np.abs(p - p_rk)) <= tol


@pytest.mark.parametrize("space", ["sphere", "hyperbolic"])
def test_closed_form_flow_needs_sigma(space):
    """Off Sigma c(p) moves along the flow of H_0, so the geodesic is not
    its flow: the closed form leaves the RK4 flow by more than 1e-2."""
    geom, q0, p0 = sigma_seeds(space, noise=0.05)
    grid = np.linspace(0.0, 1.0, 513)
    q, p = geom.super_hamiltonian_flow(q0, p0, grid)
    q_rk, p_rk = rk4_super_hamiltonian_flow(geom, q0, p0, grid)
    assert max(np.max(np.abs(q - q_rk)), np.max(np.abs(p - p_rk))) > 1e-2


def test_sigma_flow_stays_on_sigma(setup):
    sys_, geom, _ = setup
    chart = dubins_adapted_chart(sys_)
    rng = np.random.default_rng(28)
    x, p = sigma_sample(chart, rng, scale=0.03)
    _, p_t = flow_one(geom, chart.forward(x), p, np.linspace(0, 1, 51))
    assert np.max(hogc_residual(sys_, p_t)) <= 1e-8


def test_certificate_dubins_rho_one(setup):
    sys_, _, traj = setup
    report = certificate_check(sys_, traj, dubins_adapted_chart(sys_), rho=1.0,
                               grid=np.linspace(0, 1, 51))
    assert report.certified
    assert report.min_singular_value > 0.0
    assert report.singular_values[0] == pytest.approx(1.0, abs=1e-4)
    assert report.max_sigma_residual <= 1e-10


def test_certificate_rho_independent_for_dubins(setup):
    """In the exponential-product chart the Dubins cross-term matrix
    vanishes, so even rho = 0 keeps the base projection invertible."""
    sys_, _, traj = setup
    report = certificate_check(sys_, traj, dubins_adapted_chart(sys_), rho=0.0,
                               grid=np.linspace(0, 1, 26))
    assert report.min_singular_value > 0.5


def test_flow_csv(tmp_path, setup):
    sys_, geom, traj = setup
    grid = np.linspace(0, 0.2, 11)
    _, p = flow_one(geom, traj.q[0], traj.p[0], grid)
    path = tmp_path / "flow.csv"
    flow_samples_to_csv(sys_, grid, p, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 12
    assert lines[0].split(",")[-2:] == ["sigma_residual", "s_residual"]


def space_setup(space):
    sys_ = build_dubins_system(space, 3)
    p0 = dubins_initial_covector(sys_)
    traj = adjoint_trajectory(sys_, p0, np.linspace(0, 1, 101))
    return sys_, dubins_adapted_chart(sys_), traj


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_stacked_flow_matches_each_point_alone(space):
    """Each member of one stacked flow is the flow of that point alone."""
    sys_, chart, _ = space_setup(space)
    geom = GroupGeometry(sys_)
    rng = np.random.default_rng(29)
    q0, p0 = [], []
    for _ in range(4):
        x, p = sigma_sample(chart, rng, scale=0.03)
        q0.append(chart.forward(x))
        p0.append(p)
    grid = np.linspace(0, 1, 21)
    q, p = geom.super_hamiltonian_flow(np.array(q0), np.array(p0), grid)
    assert q.shape == p.shape == (grid.size, 4, sys_.d, sys_.d)
    for k in range(4):
        q_k, p_k = flow_one(geom, q0[k], p0[k], grid)
        assert np.max(np.abs(q[:, k] - q_k)) <= 1e-12
        assert np.max(np.abs(p[:, k] - p_k)) <= 1e-12


def direct_svals(sys_, chart, rho, grid, fd_step=1e-5):
    """Base-projection singular values by the direct method: 2n flows, one
    per seed x = +-fd_step e_k, each member located by chart.inverse."""
    geom = GroupGeometry(sys_)
    n = chart.n

    def lift(x):
        y = np.zeros(n)
        y[chart.R:] = chart.p_hat[chart.R:] + rho * x[chart.R:]
        return chart.covector_from_chart(x, y)

    flows = []
    for k in range(n):
        for sign in (1.0, -1.0):
            x = np.zeros(n)
            x[k] = sign * fd_step
            flows.append(flow_one(geom, chart.forward(x), lift(x), grid)[0])
    svals = np.zeros(grid.size)
    warm = [np.zeros(n) for _ in range(2 * n)]
    for idx in range(grid.size):
        base = np.zeros((n, n))
        for k in range(n):
            xp = chart.inverse(flows[2 * k][idx], x0=warm[2 * k])
            xm = chart.inverse(flows[2 * k + 1][idx], x0=warm[2 * k + 1])
            warm[2 * k], warm[2 * k + 1] = xp, xm
            base[:, k] = (xp - xm) / (2.0 * fd_step)
        svals[idx] = np.linalg.svd(base, compute_uv=False)[-1]
    return svals


@pytest.mark.parametrize("space", ["euclidean", "sphere"])
def test_certificate_matches_direct_differences(space):
    """One inversion per grid point gives the singular values of 2n."""
    sys_, chart, traj = space_setup(space)
    grid = np.linspace(0, 1, 9)
    report = certificate_check(sys_, traj, chart, rho=1.0, grid=grid,
                               n_samples=8)
    want = direct_svals(sys_, chart, 1.0, grid)
    assert np.max(np.abs(report.singular_values - want)) <= 1e-8


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_certificate_insensitive_to_fd_step(space):
    sys_, chart, traj = space_setup(space)
    grid = np.linspace(0, 1, 33)
    mins = [certificate_check(sys_, traj, chart, rho=1.0, grid=grid,
                              n_samples=8, fd_step=h).min_singular_value
            for h in (1e-4, 1e-5, 1e-6)]
    assert max(mins) - min(mins) <= 1e-8


def test_near_focal_certificate_matches_fine_rk4(monkeypatch):
    """On sphere N=3 at H = 3.0 the field is near focal (t ~ 2.357), where
    RK4's truncation shows: the closed-form certificate is within 1e-8
    relative of one flowed by RK4 at 16 steps per grid step, while RK4 on
    the 33-point grid itself is 1e-5 or more away."""
    sys_ = build_dubins_system("sphere", 3)
    chart = dubins_adapted_chart(sys_)
    traj = adjoint_trajectory(sys_, dubins_initial_covector(sys_),
                              np.linspace(0.0, 3.0, 301))
    grid = np.linspace(0.0, 3.0, 33)

    def min_sv():
        return certificate_check(sys_, traj, chart, rho=1.0, grid=grid,
                                 n_samples=8).min_singular_value

    exact = min_sv()

    def rk4_every(sub):
        def flow(self, q0, p0, coarse):
            fine = np.linspace(0.0, coarse[-1], sub * (coarse.size - 1) + 1)
            q, p = rk4_super_hamiltonian_flow(self, q0, p0, fine)
            return q[::sub], p[::sub]
        return flow

    monkeypatch.setattr(GroupGeometry, "super_hamiltonian_flow", rk4_every(16))
    assert min_sv() == pytest.approx(exact, rel=1e-8)
    monkeypatch.setattr(GroupGeometry, "super_hamiltonian_flow", rk4_every(1))
    assert abs(min_sv() - exact) >= 1e-5 * exact


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that appends 1 to the returned
    list per call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def push_member_zero_off(monkeypatch, after=-np.inf):
    """Make the certificate's flow right-multiply member 0 by
    exp(1e-6 A_1) at the grid times past `after`: forward(t e_n + 1e-6
    e_1) is then that state exactly, 1e-6 off the chart's x_n axis."""
    original = GroupGeometry.super_hamiltonian_flow

    def moved(self, q0, p0, grid):
        q, p = original(self, q0, p0, grid)
        late = grid > after
        q[late, 0] = q[late, 0] @ expm(1e-6 * self.system.controlled[0])
        return q, p

    monkeypatch.setattr(GroupGeometry, "super_hamiltonian_flow", moved)


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_certificate_takes_one_logm(space, monkeypatch):
    """On Sigma member 0 stays on the chart's x_n axis, so its series-log
    offset passes Newton's stop test at every grid time, and the one
    chart inversion, at t = H, takes no Newton step: one scipy logm per
    certificate, and no reason."""
    sys_, chart, traj = space_setup(space)
    calls = counting(monkeypatch, chart_module, "logm")
    report = certificate_check(sys_, traj, chart, rho=1.0,
                               grid=np.linspace(0, 1, 33), n_samples=8)
    assert len(calls) == 1
    assert report.certified and report.reason is None


def test_member_off_the_axis_is_not_certified(monkeypatch):
    """Member 0 moved off the axis by exp(1e-6 A_1) is flagged at the
    first grid point, where the chart inversion moves it by 1e-6, and the
    stage ends `not certified` with that offset as its reason."""
    push_member_zero_off(monkeypatch)
    sys_, chart, traj = space_setup("sphere")
    report = certificate_check(sys_, traj, chart, rho=1.0,
                               grid=np.linspace(0, 1, 9), n_samples=8)
    assert report.verdict == "not certified"
    assert report.min_singular_value >= 0.5
    assert report.reason == ("member 0 left the chart's x_n axis: at t = 0 "
                             "chart inversion moved it by 1.000e-06")
    stage = run_check({"system": {"kind": "dubins", "space_form": "sphere",
                                  "N": 3},
                       "certificate": {"n_samples": 8, "grid_points": 9},
                       "checks": ["certificate"]})["stages"]["certificate"]
    assert stage["status"] == "failed" and stage["reason"] == report.reason


def test_member_off_the_axis_late_is_found_at_its_first_time(monkeypatch):
    """Member 0 moved off the axis by exp(1e-6 A_1) only past t = 0.5 is
    flagged by its series-log offset first at t = 0.625, the first grid
    time past 0.5, and only there does chart.inverse run: Newton's one
    step moves it by 1e-6, which takes two scipy logm (the start and the
    accepted step)."""
    push_member_zero_off(monkeypatch, after=0.5)
    sys_, chart, traj = space_setup("sphere")
    inversions = counting(monkeypatch, chart_module.GroupChart, "inverse")
    logms = counting(monkeypatch, chart_module, "logm")
    report = certificate_check(sys_, traj, chart, rho=1.0,
                               grid=np.linspace(0, 1, 9), n_samples=8)
    assert report.verdict == "not certified"
    assert report.reason == ("member 0 left the chart's x_n axis: at "
                             "t = 0.625 chart inversion moved it by 1.000e-06")
    assert len(inversions) == 1 and len(logms) == 2


def test_failed_sigma_check_gives_its_reason(monkeypatch):
    """A graph point off Sigma names the residual and its bound; it
    outranks a failed singular-value margin, and member 0 off the axis
    outranks both."""
    monkeypatch.setattr(geometry_module, "hogc_residual",
                        lambda system, p: np.full(p.shape[:-2], 3e-10))
    monkeypatch.setattr(geometry_module, "CERTIFICATE_MARGIN", 2.0)
    sys_, chart, traj = space_setup("euclidean")
    grid = np.linspace(0, 1, 9)
    report = certificate_check(sys_, traj, chart, rho=1.0, grid=grid,
                               n_samples=8)
    assert report.verdict == "not certified"
    assert report.reason == ("the Lagrangian graph left Sigma: max sigma "
                             "residual 3.000e-10 exceeds 1e-10")
    push_member_zero_off(monkeypatch)
    report = certificate_check(sys_, traj, chart, rho=1.0, grid=grid,
                               n_samples=8)
    assert report.reason.startswith("member 0 left the chart's x_n axis")


def test_failed_margin_gives_its_reason(monkeypatch):
    """Below the singular-value margin, the stage's reason names the
    smallest singular value, the margin and the grid time of the
    minimum."""
    monkeypatch.setattr(geometry_module, "CERTIFICATE_MARGIN", 2.0)
    stage = run_check({"certificate": {"n_samples": 8, "grid_points": 9},
                       "checks": ["certificate"]})["stages"]["certificate"]
    grid = np.linspace(0, 1, 9)
    sys_, chart, traj = space_setup("euclidean")
    report = certificate_check(sys_, traj, chart, rho=stage["report"]["rho"],
                               grid=grid, n_samples=8)
    t_min = grid[np.argmin(report.singular_values)]
    assert report.verdict == "not certified"
    assert report.reason == (
        f"the base projection's smallest singular value 1.000e+00 at "
        f"t = {t_min:.6g} is below the margin 2")
    assert stage["status"] == "failed" and stage["reason"] == report.reason
