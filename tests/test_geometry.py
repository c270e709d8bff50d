"""Tests for the singular-surface geometry and the certificate."""

import numpy as np
import pytest
from scipy.linalg import expm

from singcert.chart import dubins_adapted_chart
from singcert.extremal import (
    ExtremalPoint,
    adjoint_trajectory,
    dubins_initial_covector,
)
from singcert.geometry import (
    GroupGeometry,
    ProjectionError,
    certificate_check,
    flow_samples_to_csv,
    hamiltonian_direction,
)
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


def test_psi_zero_is_identity(setup):
    _, geom, traj = setup
    pt = traj.points[0]
    out = geom.psi(pt, np.zeros(2))
    assert np.allclose(out.q, pt.q) and np.allclose(out.p, pt.p)


def test_psi_preserves_sigma(setup):
    sys_, geom, traj = setup
    chart = dubins_adapted_chart(sys_)
    rng = np.random.default_rng(21)
    for _ in range(5):
        x, p = sigma_sample(chart, rng)
        pt = ExtremalPoint(q=chart.forward(x), p=p, t=0.0)
        moved = geom.psi(pt, rng.uniform(-0.1, 0.1, sys_.m))
        assert geom.sigma_residual(moved.p) <= 1e-10


def test_psi_derivative_matches_hamiltonian_field(setup):
    """d psi / d t_i at 0 equals the F_i Hamiltonian direction."""
    _, geom, traj = setup
    pt = traj.points[3]
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (geom.psi(pt, e).p - geom.psi(pt, -e).p) / (2 * h)
        exact = hamiltonian_direction(pt.p, geom.ai[i])
        assert np.allclose(fd, exact, atol=1e-8)


def test_phi_fixed_point_on_s(setup):
    _, geom, traj = setup
    res = geom.phi_projection(traj.points[40])
    assert np.max(np.abs(res.theta)) <= 1e-12
    assert np.allclose(res.point.p, traj.points[40].p, atol=1e-12)


def test_phi_roundtrip_through_psi(setup):
    """Projection recovers a psi-displaced S-point and theta = -t_vec."""
    _, geom, traj = setup
    rng = np.random.default_rng(22)
    base = traj.points[10]
    for _ in range(5):
        t_vec = rng.uniform(-0.08, 0.08, 2)
        moved = geom.psi(base, t_vec)
        res = geom.phi_projection(moved)
        assert np.max(np.abs(res.theta + t_vec)) <= 1e-9
        assert np.max(np.abs(res.point.p - base.p)) <= 1e-9
        assert res.residual <= 1e-12


def test_phi_idempotent(setup):
    _, geom, traj = setup
    moved = geom.psi(traj.points[0], np.array([0.05, -0.03]))
    once = geom.phi_projection(moved)
    twice = geom.phi_projection(once.point)
    assert np.max(np.abs(twice.point.p - once.point.p)) <= 1e-10


def test_phi_rejects_indefinite_legendre(setup):
    sys_, geom, _ = setup
    bad = ExtremalPoint(q=np.eye(sys_.d),
                        p=-dubins_initial_covector(sys_), t=0.0)
    with pytest.raises(ProjectionError):
        geom.phi_projection(bad)


def test_chi_zero_on_s(setup):
    _, geom, traj = setup
    for pt in traj.points[::25]:
        assert abs(geom.chi(pt)) <= 1e-10


def test_chi_nonnegative_on_sigma(setup):
    sys_, geom, _ = setup
    chart = dubins_adapted_chart(sys_)
    rng = np.random.default_rng(23)
    for _ in range(30):
        x, p = sigma_sample(chart, rng)
        pt = ExtremalPoint(q=chart.forward(x), p=p, t=0.0)
        assert geom.chi(pt) >= -1e-10


def test_chi_quadratic_expansion(setup):
    """chi(psi(l, t)) = |t|^2 / 2 + O(|t|^3) on the Dubins extremal."""
    _, geom, traj = setup
    base = traj.points[0]
    rng = np.random.default_rng(24)
    direction = rng.standard_normal(2)
    direction /= np.linalg.norm(direction)
    for s in (1e-2, 5e-3):
        val = geom.chi(geom.psi(base, s * direction))
        assert val == pytest.approx(0.5 * s ** 2, rel=5e-2)


def test_chi_first_differences_vanish_on_s(setup):
    """dchi = 0 on S: first differences shrink at order >= 1.9."""
    _, geom, traj = setup
    pt = traj.points[15]
    rng = np.random.default_rng(25)
    dp = rng.standard_normal(pt.p.shape)

    def first_diff(h):
        plus = geom.chi(ExtremalPoint(q=pt.q, p=pt.p + h * dp, t=pt.t))
        minus = geom.chi(ExtremalPoint(q=pt.q, p=pt.p - h * dp, t=pt.t))
        return abs(plus - minus) / (2 * h)

    d1, d2 = first_diff(1e-3), first_diff(5e-4)
    assert np.log2(d1 / d2) >= 1.9


def test_chi_hessian_closed_form(setup):
    """FD Hessian matches the multiplier closed form with order >= 1.8."""
    sys_, geom, traj = setup
    pt = traj.points[30]
    rng = np.random.default_rng(26)
    directions = [hamiltonian_direction(pt.p, geom.ai[j]) for j in range(2)]
    directions.append(rng.standard_normal(pt.p.shape))
    report = geom.chi_hessian_check(pt, directions, h=1e-3)
    # F_j directions: closed form is -(L^-1)_jj = 1 for Dubins
    for j in range(2):
        assert report["directions"][j]["closed_form"] == pytest.approx(1.0, abs=1e-10)
    assert report["max_rel_error"] <= 1e-4
    assert report["min_order"] >= 1.8


def test_theta_derivative_pairing(setup):
    """<d theta_i, F_j-direction> = -delta_ij at S-points, to O(h^2)."""
    _, geom, traj = setup
    pt = traj.points[20]
    h = 1e-5
    for j in range(2):
        dp = hamiltonian_direction(pt.p, geom.ai[j])
        tp, *_ = geom.solve_theta(pt.p + h * dp)
        tm, *_ = geom.solve_theta(pt.p - h * dp)
        d_theta = (tp - tm) / (2 * h)
        expect = np.zeros(2)
        expect[j] = -1.0
        assert np.allclose(d_theta, expect, atol=1e-8)


def test_super_hamiltonian_reproduces_reference(setup):
    sys_, geom, traj = setup
    flowed = geom.super_hamiltonian_flow(traj.points[0], traj.grid,
                                         monitor_sigma=True)
    for k in range(0, 101, 20):
        assert np.max(np.abs(flowed[k].p - traj.points[k].p)) <= 1e-8
        assert np.max(np.abs(flowed[k].q - traj.points[k].q)) <= 1e-8


def test_super_hamiltonian_on_s_equals_drift_flow(setup):
    """On S the flow coincides with the singular-feedback field flow."""
    sys_, geom, traj = setup
    chart = dubins_adapted_chart(sys_)
    rng = np.random.default_rng(27)
    x, p_sigma = sigma_sample(chart, rng, scale=0.03)
    start = ExtremalPoint(q=chart.forward(x), p=p_sigma, t=0.0)
    pt = geom.phi_projection(start).point
    p = pt.p
    assert geom.s_residual(p) <= 1e-10
    grid = np.linspace(0, 0.5, 26)
    flowed = geom.super_hamiltonian_flow(pt, grid)
    m_end = expm(grid[-1] * sys_.drift)
    expect_p = m_end.T @ p @ np.linalg.inv(m_end).T
    assert np.max(np.abs(flowed[-1].p - expect_p)) <= 1e-9
    assert np.max(np.abs(flowed[-1].q - pt.q @ m_end)) <= 1e-9


def test_sigma_flow_stays_on_sigma(setup):
    sys_, geom, _ = setup
    chart = dubins_adapted_chart(sys_)
    rng = np.random.default_rng(28)
    x, p = sigma_sample(chart, rng, scale=0.03)
    pt = ExtremalPoint(q=chart.forward(x), p=p, t=0.0)
    flowed = geom.super_hamiltonian_flow(pt, np.linspace(0, 1, 51),
                                         monitor_sigma=True, sigma_tol=1e-8)
    assert geom.sigma_residual(flowed[-1].p) <= 1e-8


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
    _, geom, traj = setup
    samples = geom.super_hamiltonian_flow(traj.points[0],
                                          np.linspace(0, 0.2, 11))
    path = tmp_path / "flow.csv"
    flow_samples_to_csv(geom, samples, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 12
    assert lines[0].split(",")[-2:] == ["sigma_residual", "s_residual"]


def space_setup(space):
    sys_ = build_dubins_system(space, 3)
    p0 = dubins_initial_covector(sys_)
    traj = adjoint_trajectory(sys_, p0, np.linspace(0, 1, 101))
    return sys_, dubins_adapted_chart(sys_), traj


@pytest.mark.parametrize("space", ["euclidean", "sphere"])
def test_stacked_flow_matches_each_point_alone(space):
    """Each member of one stacked flow is the flow of that point alone."""
    sys_, chart, _ = space_setup(space)
    geom = GroupGeometry(sys_)
    rng = np.random.default_rng(29)
    starts = []
    for _ in range(4):
        x, p = sigma_sample(chart, rng, scale=0.03)
        starts.append(ExtremalPoint(q=chart.forward(x), p=p, t=0.0))
    grid = np.linspace(0, 1, 21)
    stacked = geom.super_hamiltonian_flow(starts, grid)
    for k, start in enumerate(starts):
        alone = geom.super_hamiltonian_flow(start, grid)
        for both, one in zip(stacked, alone):
            assert np.max(np.abs(both.q[k] - one.q)) <= 1e-12
            assert np.max(np.abs(both.p[k] - one.p)) <= 1e-12


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
            pt = ExtremalPoint(q=chart.forward(x), p=lift(x), t=0.0)
            flows.append(geom.super_hamiltonian_flow(pt, grid))
    svals = np.zeros(grid.size)
    warm = [np.zeros(n) for _ in range(2 * n)]
    for idx in range(grid.size):
        base = np.zeros((n, n))
        for k in range(n):
            xp = chart.inverse(flows[2 * k][idx].q, x0=warm[2 * k])
            xm = chart.inverse(flows[2 * k + 1][idx].q, x0=warm[2 * k + 1])
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
