"""Tests for reference flows, adjoint transport, and necessary conditions."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from singcert.algebra import commutator, numerical_rank, pairing, span_contains
from singcert.chart import dubins_adapted_chart
from singcert.extremal import (
    ConditionCheck,
    ConditionReport,
    EQUALITY_TOL,
    ExtremalTrajectory,
    RANK_TOL,
    SGLC_MIN_MARGIN,
    adjoint_trajectory,
    check_table,
    condition_battery,
    dubins_initial_covector,
    hamiltonian_bracket,
    hogc_residual,
    legendre_form,
    reference_flow,
    s_residual,
    singular_feedback,
    trajectory_to_csv,
    verify_structure_properties,
)
from singcert.numerics import rk4_flow, rk4_stage_times, time_grid
from singcert.pipeline import _build_problem, load_config
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


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_adjoint_trajectory_matches_each_point_alone(space):
    """The stacked exponential and transport are the per-point ones, bit
    for bit, and the closed-form inverse transports as expm(-t A0) does,
    to rounding."""
    system = build_dubins_system(space, 4)
    p0 = dubins_initial_covector(system)
    grid = np.linspace(0.0, 1.0, 41)
    traj = adjoint_trajectory(system, p0, grid)
    assert traj.q.shape == traj.p.shape == (grid.size, system.d, system.d)
    for t, q, p in zip(grid, traj.q, traj.p):
        m = expm(t * system.drift)
        assert np.array_equal(q, m)
        assert np.array_equal(p, m.T @ p0 @ system.inverse(m).T)
        assert np.max(np.abs(p - m.T @ p0 @ expm(-t * system.drift).T)) \
            <= 1e-15 * np.max(np.abs(p))


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_covector_helpers_take_stacks(space):
    """Each helper gives one value per covector of a stack, equal to the
    call on that covector alone."""
    system = build_dubins_system(space, 4)
    ps = np.random.default_rng(19).standard_normal((6, system.d, system.d))
    for word in ((1, 2), (1, (2, 0)), (0, (0, 3))):
        assert np.array_equal(hamiltonian_bracket(system, ps, word),
                              [hamiltonian_bracket(system, p, word)
                               for p in ps])
    for helper in (hogc_residual, s_residual, legendre_form):
        assert np.array_equal(helper(system, ps),
                              [helper(system, p) for p in ps])
    assert legendre_form(system, ps).shape == (6, system.m, system.m)


def controlled_flow_end(system, n_steps):
    """End of M' = M (A0 + sin(2t) A1 + cos(3t) A2), M(0) = I, on [0, 1] by
    one-step rk4_flow calls, each state projected onto the group before
    the next step."""
    grid = np.linspace(0, 1, n_steps + 1)
    times = rk4_stage_times(grid)
    m = np.eye(system.d)
    for k in range(n_steps):
        def rhs(i, m, k=k):
            t = times[3 * k + i]
            return m @ (system.drift + np.sin(2 * t) * system.controlled[0]
                        + np.cos(3 * t) * system.controlled[1])

        m = system.project_to_group(rk4_flow(rhs, grid[k:k + 2], m)[-1])
    return m


def test_reference_flow_fourth_order(dub3):
    """Step halving on a smooth control shows 4th-order convergence."""
    finest = controlled_flow_end(dub3, 2 ** 12)
    errs = []
    steps = [2 ** k for k in (4, 5, 6, 7)]
    for n in steps:
        errs.append(np.max(np.abs(controlled_flow_end(dub3, n) - finest)))
    order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert -order >= 3.7


def test_rk4_flow_needs_increasing_time_grid():
    """rk4_flow steps on a strictly increasing (T,) grid and rejects any
    other."""
    def f(i, y):
        return y[..., ::-1] - 0.3 * y

    y0 = np.array([[1.0, 2.0], [0.5, -1.0]])
    grid = np.linspace(0.0, 1.0, 9)
    assert rk4_flow(f, grid, y0).shape == (9, 2, 2)
    for bad in (grid[::-1], np.array([0.0, 0.5, 0.5, 1.0]),
                np.stack([grid, grid], axis=1)):
        with pytest.raises(ValueError):
            rk4_flow(f, bad, y0)


def test_rk4_flow_reads_stage_times_on_a_non_uniform_grid():
    """On a grid with an extra point, as the falsifier's grid has t_hat,
    step k reads the stage table at t_k, t_k + h/2 (twice) and t_k + h, in
    order, and each state is exactly one RK4 step from the one before."""
    grid = np.union1d(time_grid(1.1, 0.1), [1.0 / 3.0])
    times = rk4_stage_times(grid)
    h = np.diff(grid)
    assert times.shape == (3 * h.size,)
    assert np.array_equal(times.reshape(-1, 3), np.stack(
        [grid[:-1], grid[:-1] + 0.5 * h, grid[:-1] + h], axis=1))
    read = []

    def g(i, y):
        return np.cos(times[i]) * y[::-1] - 0.3 * y

    def f(i, y):
        read.append(i)
        return g(i, y)

    y0 = np.array([1.0, 2.0])
    flow = rk4_flow(f, grid, y0)
    assert read == [3 * k + s for k in range(h.size) for s in (0, 1, 1, 2)]
    assert flow.shape == (grid.size, 2)
    assert np.array_equal(flow[0], y0)
    for k, step in enumerate(h):
        y = flow[k]
        k1 = g(3 * k, y)
        k2 = g(3 * k + 1, y + 0.5 * step * k1)
        k3 = g(3 * k + 1, y + 0.5 * step * k2)
        k4 = g(3 * k + 2, y + step * k3)
        assert np.array_equal(
            flow[k + 1], y + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


@pytest.mark.parametrize("horizon, dt", [(1.0, 0.01), (1.1, 0.02),
                                         (0.3, 0.1), (0.01, 0.02),
                                         (2.0 * np.pi, 0.013)])
def test_time_grid_has_eight_steps_and_ends_at_the_horizon(horizon, dt):
    grid = time_grid(horizon, dt)
    assert grid.size - 1 == max(round(horizon / dt), 8)
    assert grid[0] == 0.0 and grid[-1] == horizon
    assert np.all(np.diff(grid) > 0)


def test_adjoint_identity_at_zero(dub3, extremal3):
    p0 = dubins_initial_covector(dub3)
    assert np.allclose(extremal3.p[0], p0, atol=1e-14)


def test_drift_hamiltonian_conserved(dub3, extremal3):
    """F_0 = 1 exactly along the singular arc."""
    for p in extremal3.p[::20]:
        assert abs(pairing(p, dub3.drift) - 1.0) <= 1e-12


def test_hamiltonian_bracket_self_zero(dub3, extremal3):
    assert hamiltonian_bracket(dub3, extremal3.p[10], (1, 1)) == 0.0


def test_goh_vanishes_on_singular_arc(dub3, extremal3):
    for p in extremal3.p[::20]:
        assert abs(hamiltonian_bracket(dub3, p, (1, 2))) <= 1e-12


def test_poisson_bracket_matches_fd_flow(dub3):
    """{F_1,{F_1,F_0}} agrees with second differences of F_0 along the
    controlled Hamiltonian flow."""
    rng = np.random.default_rng(11)
    p = rng.standard_normal((dub3.d, dub3.d))
    word_val = hamiltonian_bracket(dub3, p, (1, (1, 0)))
    a1 = dub3.controlled[0]
    h = 1e-4

    def f0_along(s):
        # coadjoint transport of p by exp(s A1), paired with the drift
        e = expm(s * a1)
        return pairing(p, e @ dub3.drift @ np.linalg.inv(e))

    fd = (f0_along(h) - 2 * f0_along(0.0) + f0_along(-h)) / h ** 2
    assert fd == pytest.approx(word_val, abs=1e-6)


def test_legendre_form_is_minus_identity(dub3, extremal3):
    for p in extremal3.p[::50]:
        lf = legendre_form(dub3, p)
        assert np.max(np.abs(lf + np.eye(dub3.m))) <= 1e-12


def test_legendre_form_zero_covector(dub3):
    p = np.zeros((dub3.d, dub3.d))
    assert np.max(np.abs(legendre_form(dub3, p))) == 0.0


def feedback_at(system, p):
    """singular_feedback on a stack of one covector."""
    lform = legendre_form(system, p)
    rhs = [hamiltonian_bracket(system, p, (0, (0, i + 1)))
           for i in range(system.m)]
    return singular_feedback(lform[None], np.array(rhs)[None])[0]


def test_singular_feedback_zero_and_scale_invariant(dub3, extremal3):
    p = extremal3.p[77]
    nu = feedback_at(dub3, p)
    assert np.max(np.abs(nu)) <= 1e-10
    assert np.allclose(feedback_at(dub3, 2.0 * p), nu, atol=1e-10)


def test_initial_covector_annihilation(dub3):
    p0 = dubins_initial_covector(dub3)
    for a in dub3.algebra_basis[:-1]:
        assert abs(pairing(p0, a)) <= 1e-12
    assert pairing(p0, dub3.drift) == pytest.approx(1.0, abs=1e-14)


def test_condition_battery_passes(dub3, extremal3):
    report = condition_battery(extremal3)
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
    assert by_name["transversality"].passed


def test_condition_battery_flags_random_covector(dub3):
    rng = np.random.default_rng(13)
    p0 = rng.standard_normal((dub3.d, dub3.d))
    p0 = p0 / pairing(p0, dub3.drift)
    traj = adjoint_trajectory(dub3, p0, np.linspace(0, 1, 21))
    report = condition_battery(traj)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["hogc"].passed
    assert by_name["hogc"].residual > 0
    # a random covector does not annihilate the [A_i, A_j] at the ends
    assert not by_name["transversality"].passed


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
    for p in traj.p[::10]:
        assert np.max(np.abs(feedback_at(sys_, p))) <= 1e-10
        assert np.max(np.abs(legendre_form(sys_, p) + np.eye(sys_.m))) \
            <= 1e-12


def direct_battery(trajectory):
    """The condition battery one grid point at a time, one pairing per
    bracket word, so it never reads the system's bracket tables: the
    reference for the batched battery."""
    system = trajectory.system
    m = system.m
    derived_words = [(i + 1, j + 1) for i in range(m) for j in range(i + 1, m)]

    def legendre(p):
        return np.array([[hamiltonian_bracket(system, p, (i + 1, (j + 1, 0)))
                          for j in range(m)] for i in range(m)])

    def feedback(p):
        lform = legendre(p)
        if np.linalg.cond(lform) > 1e8:
            raise np.linalg.LinAlgError(
                "Legendre form is ill-conditioned; strengthened Legendre "
                "condition fails at this point")
        rhs = np.array([hamiltonian_bracket(system, p, (0, (0, i + 1)))
                        for i in range(m)])
        return np.linalg.solve(lform, rhs)

    f_i_res = normality_res = goh_res = hogc_res = 0.0
    f0i_res = feedback_res = sym_res = 0.0
    eig_low = np.inf
    eig_high = -np.inf
    for p in trajectory.p:
        f_i_res = max(f_i_res, max(
            abs(pairing(p, a)) for a in system.controlled))
        normality_res = max(normality_res,
                            abs(pairing(p, system.drift) - 1.0))
        goh_res = max(goh_res, max(
            abs(hamiltonian_bracket(system, p, word))
            for word in derived_words) if m > 1 else 0.0)
        hogc_res = max(hogc_res, hogc_residual(system, p))
        lform = legendre(p)
        sym_res = max(sym_res, float(np.max(np.abs(lform - lform.T))))
        eigs = np.linalg.eigvalsh(0.5 * (lform + lform.T))
        eig_low = min(eig_low, eigs[0])
        eig_high = max(eig_high, eigs[-1])
        f0i_vals = np.array([
            hamiltonian_bracket(system, p, (0, i + 1)) for i in range(m)])
        f0i_res = max(f0i_res, float(np.max(np.abs(f0i_vals))))
        nu = feedback(p)
        resid = np.array([
            f0i_vals[i] + sum(
                nu[j] * hamiltonian_bracket(system, p, (j + 1, i + 1))
                for j in range(m))
            for i in range(m)])
        feedback_res = max(feedback_res, float(np.max(np.abs(resid))))
    sglc_margin = -eig_high

    checks = [
        ConditionCheck("pmp_switching", f_i_res <= EQUALITY_TOL, f_i_res),
        ConditionCheck("normality", normality_res <= EQUALITY_TOL,
                       normality_res),
        ConditionCheck("goh", goh_res <= EQUALITY_TOL, goh_res),
        ConditionCheck("hogc", hogc_res <= EQUALITY_TOL, hogc_res),
        ConditionCheck(
            "sglc", sglc_margin >= SGLC_MIN_MARGIN and sym_res <= 1e-12,
            float(-sglc_margin),
            {"margin": float(sglc_margin), "eig_low": float(eig_low),
             "eig_high": float(eig_high), "symmetry_residual": float(sym_res)}),
        ConditionCheck("s_membership", f0i_res <= EQUALITY_TOL, f0i_res),
        ConditionCheck("feedback_consistency", feedback_res <= EQUALITY_TOL,
                       feedback_res),
    ]
    # both Dubins endpoint manifolds are integral manifolds of the derived
    # sub-algebra
    res0, resf = (max((abs(hamiltonian_bracket(system, end, word))
                       for word in derived_words), default=0.0)
                  for end in (trajectory.p[0], trajectory.p[-1]))
    checks.append(ConditionCheck(
        "transversality", max(res0, resf) <= EQUALITY_TOL, max(res0, resf),
        {"initial": float(res0), "final": float(resf)}))
    return ConditionReport(tuple(checks), float(sglc_margin))


def direct_regularity(system):
    """regularity_of_S by one least-squares solve per bracket: the
    reference for that entry of the run's hypotheses."""
    closure = list(system.lie_closure_basis)
    f0i_elems = [commutator(system.drift, a) for a in system.controlled]
    reg_span = closure + f0i_elems
    reg_res = max(
        span_contains(reg_span, commutator(system.drift, b)) for b in closure)
    reg_rank = numerical_rank(np.array([b.ravel() for b in reg_span]), RANK_TOL)
    expected = system.R + system.m
    return check_table([ConditionCheck(
        "regularity_of_S", reg_res <= EQUALITY_TOL and reg_rank == expected,
        reg_res, {"rank": int(reg_rank), "expected_rank": expected,
                  "bound": EQUALITY_TOL})])["regularity_of_S"]


def structure_hypotheses(system):
    """The run's hypotheses of a system, on its adapted chart, as reported."""
    return check_table(verify_structure_properties(
        system, dubins_adapted_chart(system)))


def assert_battery_matches_direct(trajectory):
    """The batched battery's report equals the point-by-point one, and the
    regularity_of_S hypothesis equals the direct solve's, exactly. Returns
    the batched report."""
    batched = condition_battery(trajectory).as_dict()
    assert batched == direct_battery(trajectory).as_dict()
    assert structure_hypotheses(trajectory.system)["regularity_of_S"] \
        == direct_regularity(trajectory.system)
    return batched


@pytest.mark.parametrize("space, n, drift_sign", [
    ("euclidean", 3, 1), ("euclidean", 4, 1), ("sphere", 3, 1),
    ("sphere", 4, 1), ("hyperbolic", 3, 1), ("hyperbolic", 4, 1),
    ("euclidean", 3, -1)])
def test_battery_matches_point_by_point(space, n, drift_sign):
    """The one-product battery reports exactly what the loop over grid
    points reports, on the default arcs and on the flipped drift."""
    config = load_config({"system": {"kind": "dubins", "space_form": space,
                                     "N": n, "drift_sign": drift_sign}})
    system, _, trajectory, hypotheses = _build_problem(config)
    batched = assert_battery_matches_direct(trajectory)
    assert batched["passed"] == (drift_sign == 1)
    # the flipped drift keeps the structure: only the arc fails
    assert len(hypotheses) == 10 and all(h.passed for h in hypotheses)


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_battery_matches_point_by_point_off_the_arc(space):
    """On a random covector every residual is far from zero, so each slice
    of the one product must land in its own check."""
    system = build_dubins_system(space, 4)
    rng = np.random.default_rng(17)
    p0 = rng.standard_normal((system.d, system.d))
    trajectory = adjoint_trajectory(system, p0 / pairing(p0, system.drift),
                                    np.linspace(0.0, 1.0, 41))
    batched = assert_battery_matches_direct(trajectory)
    for name in ("pmp_switching", "goh", "hogc", "s_membership",
                 "feedback_consistency", "transversality"):
        assert batched["checks"][name]["residual"] > 1e-3


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_battery_fails_a_system_off_the_dubins_structure(space):
    """A drift bent by 0.1 [A_1, A_2] on N = 4 keeps every arc check
    passing on its own singular arc, but A0 no longer commutes with the
    derived algebra, and it is neither a wedge with e1 nor a single-plane
    chart axis (the sum of two plane generators in disjoint planes): the
    hypotheses name each broken one, with the bent entry 0.1 as the wedge
    residual, while the battery passes every arc check. regularity_of_S
    matches the direct solve."""
    system = build_dubins_system(space, 4)
    ai = system.controlled
    bent = dataclasses.replace(
        system, drift=system.drift + 0.1 * commutator(ai[0], ai[1]))
    trajectory = adjoint_trajectory(bent, dubins_initial_covector(bent),
                                    np.linspace(0.0, 1.0, 41))
    hypotheses = structure_hypotheses(bent)
    assert sorted(k for k, h in hypotheses.items() if not h["passed"]) == [
        "chart_axes_single_plane", "double_bracket_drift",
        "drift_commutes_derived", "drift_family_commutes",
        "fields_are_e1_wedges"]
    for name in ("double_bracket_drift", "drift_commutes_derived",
                 "drift_family_commutes", "chart_axes_single_plane"):
        assert hypotheses[name]["residual"] > 1e-3
    assert hypotheses["fields_are_e1_wedges"]["residual"] == 0.1
    report = assert_battery_matches_direct(trajectory)
    assert report["passed"]
    assert sorted(report["checks"]) == [
        "feedback_consistency", "goh", "hogc", "normality", "pmp_switching",
        "s_membership", "sglc", "transversality"]


def test_battery_reports_arc_checks_beside_broken_hypotheses(dub3):
    """A drift bent along A_1 breaks the arc and the structure at once:
    the battery names the arc's failures and the hypotheses the
    structure's. The bent drift is still a wedge with e1, so the closed
    forms' premises hold."""
    bent = dataclasses.replace(dub3, drift=dub3.drift + 0.1 * dub3.controlled[0])
    trajectory = adjoint_trajectory(bent, dubins_initial_covector(bent),
                                    np.linspace(0.0, 1.0, 41))
    report = condition_battery(trajectory).as_dict()
    assert not report["passed"]
    assert sorted(k for k, c in report["checks"].items()
                  if not c["passed"]) == ["feedback_consistency", "hogc",
                                          "pmp_switching", "s_membership"]
    assert sorted(k for k, h in structure_hypotheses(bent).items()
                  if not h["passed"]) == ["double_bracket_drift",
                                          "drift_commutes_derived",
                                          "drift_family_commutes"]


def test_battery_rejects_ill_conditioned_legendre_form(dub3, extremal3):
    """A singular Legendre form at one grid point raises the error the
    point-by-point battery raises there."""
    p = extremal3.p[:5].copy()
    p[3] = 0.0
    trajectory = ExtremalTrajectory(dub3, extremal3.grid[:5],
                                    extremal3.q[:5], p)
    with pytest.raises(np.linalg.LinAlgError) as batched:
        condition_battery(trajectory)
    with pytest.raises(np.linalg.LinAlgError) as direct:
        direct_battery(trajectory)
    assert str(batched.value) == str(direct.value)
    assert "ill-conditioned" in str(batched.value)


def test_non_finite_reference_arc_is_named():
    """A hyperbolic arc of length 800 overflows: it is formed without
    warnings, and the condition battery names the first grid time where it
    is not finite. A coarse grid keeps the test fast."""
    system = build_dubins_system("hyperbolic", 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = adjoint_trajectory(system, dubins_initial_covector(system),
                                  np.linspace(0.0, 800.0, 9))
        with pytest.raises(np.linalg.LinAlgError,
                           match="reference arc is not finite at t = 400,"):
            condition_battery(traj)
