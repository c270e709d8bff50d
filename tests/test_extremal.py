"""Tests for reference flows, adjoint transport, and necessary conditions."""

import numpy as np
import pytest
from scipy.linalg import expm

from singcert.algebra import pairing
from singcert.extremal import (
    ExtremalPoint,
    adjoint_trajectory,
    condition_battery,
    dubins_boundary_tangents,
    dubins_initial_covector,
    hamiltonian_bracket,
    legendre_form,
    reference_flow,
    singular_feedback,
    trajectory_to_csv,
)
from singcert.numerics import rk4_flow
from singcert.systems import build_dubins_system


@pytest.fixture(scope="module")
def dub3():
    return build_dubins_system("euclidean", 3)


@pytest.fixture(scope="module")
def extremal3(dub3):
    grid = np.linspace(0.0, 1.0, 201)
    p0 = dubins_initial_covector(dub3)
    return adjoint_trajectory(dub3, p0, grid)


def test_reference_flow_zero_control_exact(dub3):
    grid = np.array([0.0, 0.5, 1.0])
    cache = reference_flow(dub3, grid)
    assert np.allclose(cache[2], expm(dub3.drift), atol=1e-14)


def test_reference_flow_sphere_orthogonal():
    sys_ = build_dubins_system("sphere", 3)
    cache = reference_flow(sys_, np.linspace(0, 1, 11))
    for m in cache:
        assert np.max(np.abs(m.T @ m - np.eye(sys_.d))) <= 1e-10


def controlled_flow_end(system, n_steps):
    """End of M' = M (A0 + sin(2t) A1 + cos(3t) A2), M(0) = I, on [0, 1] by
    rk4_flow with group projection, as the falsifier integrates."""
    def rhs(t, m):
        return m @ (system.drift + np.sin(2 * t) * system.controlled[0]
                    + np.cos(3 * t) * system.controlled[1])

    return rk4_flow(rhs, np.linspace(0, 1, n_steps + 1), np.eye(system.d),
                    lambda t, m: system.project_to_group(m))[-1]


def test_reference_flow_fourth_order(dub3):
    """Step halving on a smooth control shows 4th-order convergence."""
    finest = controlled_flow_end(dub3, 2 ** 12)
    errs = []
    steps = [2 ** k for k in (4, 5, 6, 7)]
    for n in steps:
        errs.append(np.max(np.abs(controlled_flow_end(dub3, n) - finest)))
    order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert -order >= 3.7


def test_rk4_flow_per_member_grid():
    """A (T, S) grid steps each member on its own times, with the same
    arithmetic as a (T,) run of that member alone."""
    grid = np.stack([np.linspace(0.0, 1.0, 9), np.linspace(0.0, 2.0, 9) ** 2,
                     np.cumsum(np.arange(9.0))], axis=1)
    y0 = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.25]])

    def f(t, y):
        return np.sin(t)[..., None] * y[..., ::-1] - 0.3 * y

    stacked = np.array(rk4_flow(f, grid, y0))
    for j in range(3):
        alone = np.array(rk4_flow(f, grid[:, j], y0[j]))
        assert np.array_equal(stacked[:, j], alone)
    with pytest.raises(ValueError):
        rk4_flow(f, grid[::-1], y0)


def test_adjoint_identity_at_zero(dub3, extremal3):
    p0 = dubins_initial_covector(dub3)
    assert np.allclose(extremal3.points[0].p, p0, atol=1e-14)


def test_drift_hamiltonian_conserved(dub3, extremal3):
    """F_0 = 1 exactly along the singular arc."""
    for pt in extremal3.points[::20]:
        assert abs(pairing(pt.p, dub3.drift) - 1.0) <= 1e-12


def test_hamiltonian_bracket_self_zero(dub3, extremal3):
    pt = extremal3.points[10]
    assert hamiltonian_bracket(dub3, pt, (1, 1)) == 0.0


def test_goh_vanishes_on_singular_arc(dub3, extremal3):
    for pt in extremal3.points[::20]:
        assert abs(hamiltonian_bracket(dub3, pt, (1, 2))) <= 1e-12


def test_poisson_bracket_matches_fd_flow(dub3):
    """{F_1,{F_1,F_0}} agrees with second differences of F_0 along the
    controlled Hamiltonian flow."""
    rng = np.random.default_rng(11)
    p = rng.standard_normal((dub3.d, dub3.d))
    pt = ExtremalPoint(q=np.eye(dub3.d), p=p, t=0.0)
    word_val = hamiltonian_bracket(dub3, pt, (1, (1, 0)))
    a1 = dub3.controlled[0]
    h = 1e-4

    def f0_along(s):
        # coadjoint transport of p by exp(s A1), paired with the drift
        e = expm(s * a1)
        return pairing(p, e @ dub3.drift @ np.linalg.inv(e))

    fd = (f0_along(h) - 2 * f0_along(0.0) + f0_along(-h)) / h ** 2
    assert fd == pytest.approx(word_val, abs=1e-6)


def test_legendre_form_is_minus_identity(dub3, extremal3):
    for pt in extremal3.points[::50]:
        lf = legendre_form(dub3, pt)
        assert np.max(np.abs(lf.entries + np.eye(dub3.m))) <= 1e-12


def test_legendre_form_zero_covector(dub3):
    pt = ExtremalPoint(q=np.eye(dub3.d), p=np.zeros((dub3.d, dub3.d)), t=0.0)
    assert np.max(np.abs(legendre_form(dub3, pt).entries)) == 0.0


def test_singular_feedback_zero_and_scale_invariant(dub3, extremal3):
    pt = extremal3.points[77]
    nu = singular_feedback(dub3, pt)
    assert np.max(np.abs(nu)) <= 1e-10
    scaled = ExtremalPoint(q=pt.q, p=2.0 * pt.p, t=pt.t)
    assert np.allclose(singular_feedback(dub3, scaled), nu, atol=1e-10)


def test_initial_covector_annihilation(dub3):
    p0 = dubins_initial_covector(dub3)
    for a in list(dub3.controlled) + dub3.full_algebra_basis()[dub3.m:-1]:
        assert abs(pairing(p0, a)) <= 1e-12
    assert pairing(p0, dub3.drift) == pytest.approx(1.0, abs=1e-14)


def test_condition_battery_passes(dub3, extremal3):
    report = condition_battery(extremal3, dubins_boundary_tangents(dub3))
    assert report.passed, report.as_dict()
    assert report.sglc_margin == pytest.approx(1.0, abs=1e-10)


def test_condition_battery_flags_broken_normality(dub3):
    grid = np.linspace(0.0, 1.0, 51)
    p0 = 2.0 * dubins_initial_covector(dub3)
    traj = adjoint_trajectory(dub3, p0, grid)
    report = condition_battery(traj)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["normality"].passed
    assert by_name["hogc"].passed
    assert by_name["goh"].passed


def test_condition_battery_flags_random_covector(dub3):
    rng = np.random.default_rng(13)
    p0 = rng.standard_normal((dub3.d, dub3.d))
    p0 = p0 / pairing(p0, dub3.drift)
    traj = adjoint_trajectory(dub3, p0, np.linspace(0, 1, 21))
    report = condition_battery(traj)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["hogc"].passed
    assert by_name["hogc"].residual > 0


def test_trajectory_csv(tmp_path, dub3, extremal3):
    path = tmp_path / "traj.csv"
    trajectory_to_csv(extremal3, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(extremal3.grid) + 1
    assert len(lines[1].split(",")) == len(lines[0].split(","))


def test_sphere_extremal_recovery():
    """Spherical Dubins singular arc: nu = 0 and L = -I as well."""
    sys_ = build_dubins_system("sphere", 3)
    p0 = dubins_initial_covector(sys_)
    traj = adjoint_trajectory(sys_, p0, np.linspace(0, 1, 101))
    for pt in traj.points[::10]:
        assert np.max(np.abs(singular_feedback(sys_, pt))) <= 1e-10
        assert np.max(np.abs(legendre_form(sys_, pt).entries + np.eye(sys_.m))) <= 1e-12
