"""End-to-end acceptance criteria for the verification toolkit."""

import dataclasses
import functools

import numpy as np
import pytest
from scipy.linalg import expm

from singcert.algebra import commutator, numerical_rank
from singcert.chart import dubins_adapted_chart
from singcert.extremal import (
    adjoint_trajectory,
    condition_battery,
    dubins_initial_covector,
    hamiltonian_bracket,
    legendre_form,
    singular_feedback,
    verify_structure_properties,
)
from singcert.falsifier import (
    TargetSpec,
    _needle_exponentials,
    competitor_sweep,
    needle_variation,
)
from singcert.geometry import GroupGeometry, certificate_check
from singcert.numerics import rk4_flow, rk4_stage_times
from singcert.pipeline import emit, run_check
from singcert.secondvar import (
    assemble_lq,
    conjugate_point_test,
    galerkin_assemble,
    galerkin_coercivity,
    iota_equivalence_check,
)
from singcert.systems import build_dubins_system


@pytest.fixture(scope="module")
def dub3():
    return build_dubins_system("euclidean", 3)


@pytest.fixture(scope="module")
def chart3(dub3):
    return dubins_adapted_chart(dub3)


@pytest.fixture(scope="module")
def extremal3(dub3):
    p0 = dubins_initial_covector(dub3)
    return adjoint_trajectory(dub3, p0, np.linspace(0.0, 1.0, 101))


@pytest.fixture(scope="module")
def lq3(dub3, chart3, extremal3):
    return assemble_lq(dub3, extremal3, chart3)


def test_criterion_1_structure_properties():
    for n in (3, 4, 5):
        for form in ("euclidean", "sphere", "hyperbolic"):
            system = build_dubins_system(form, n)
            report = verify_structure_properties(
                system, dubins_adapted_chart(system))
            assert all(c.passed for c in report), (form, n, report)
            assert max(c.residual for c in report) <= 1e-12
            assert system.R == n * (n - 1) // 2
            derived = [commutator(a, b).ravel()
                       for i, a in enumerate(system.controlled)
                       for b in system.controlled[i + 1:]]
            assert numerical_rank(np.array(derived)) == \
                (n - 1) * (n - 2) // 2


def test_criterion_2_singular_extremal_recovery():
    for form in ("euclidean", "sphere"):
        system = build_dubins_system(form, 3)
        p0 = dubins_initial_covector(system)
        traj = adjoint_trajectory(system, p0, np.linspace(0.0, 1.0, 101))
        lforms = np.array([legendre_form(system, p) for p in traj.p])
        rhs = np.array([[hamiltonian_bracket(system, p, (0, (0, i + 1)))
                         for i in range(system.m)] for p in traj.p])
        nu_sup = np.max(np.abs(singular_feedback(lforms, rhs)))
        assert nu_sup <= 1e-10
        for p in traj.p[::10]:
            lf = legendre_form(system, p)
            assert np.max(np.abs(lf + np.eye(system.m))) <= 1e-12


def test_criterion_3_condition_battery(dub3, extremal3):
    report = condition_battery(extremal3)
    assert report.passed, report.as_dict()
    assert report.sglc_margin == pytest.approx(1.0, abs=1e-10)
    assert report.as_dict()["checks"]["transversality"]["passed"]


def test_criterion_4_second_variation_exactness(lq3):
    k_pieces = 32
    asm = galerkin_assemble(lq3, k_pieces)
    rng = np.random.default_rng(2024)
    h = lq3.horizon / k_pieces
    for _ in range(50):
        w = rng.standard_normal((k_pieces, lq3.m))
        w -= w.mean(axis=0)
        value = asm.value(np.concatenate([np.zeros(lq3.R), w.ravel()]))
        assert value == pytest.approx(0.5 * h * np.sum(w ** 2), abs=1e-10)


def test_criterion_5_coercivity_both_methods(lq3):
    gal = galerkin_coercivity(lq3, 16)
    assert gal.coercive
    # the report's refinements keep their counts as ints
    for level in gal.as_dict()["refinements"]:
        assert level["K"] in (16, 32, 64)
        assert isinstance(level["K"], int)
        assert isinstance(level["constraint_rank"], int)
        assert 0.45 <= level["margin"] <= 0.5 + 1e-12
    conj = conjugate_point_test(lq3)
    assert conj.coercive
    assert conj.margin >= 0.1
    assert gal.verdict == conj.verdict


def test_criterion_6_geometry_suite(dub3, chart3, extremal3):
    geom = GroupGeometry(dub3)
    rng = np.random.default_rng(6)
    for _ in range(128):
        x = 0.05 * rng.standard_normal(chart3.n)
        y = np.zeros(chart3.n)
        y[chart3.R:] = chart3.p_hat[chart3.R:] + \
            0.05 * rng.standard_normal(chart3.n - chart3.R)
        p = chart3.covector_from_chart(x, y)
        assert geom.chi(p) >= -1e-10
    for p in extremal3.p[::20]:
        assert abs(geom.chi(p)) <= 1e-10
    # the projection undoes a transport along the flows of the F_i
    base = extremal3.p[10]
    for _ in range(8):
        e = expm(np.tensordot(rng.uniform(-0.08, 0.08, dub3.m), geom.ai, 1))
        moved = e.T @ base @ np.linalg.inv(e).T
        assert np.max(np.abs(geom.project(moved)[1] - base)) <= 1e-9


def test_criterion_7_certificate(dub3, chart3, extremal3, lq3):
    report = certificate_check(dub3, extremal3, chart3, rho=1.0,
                               grid=np.linspace(0.0, 1.0, 33))
    assert report.certified
    assert report.min_singular_value > 0.0
    assert np.min(report.singular_values) > 0.0
    equiv = iota_equivalence_check(lq3, dub3, chart3, extremal3,
                                   n_samples=5, h=1e-4, seed=0)
    assert equiv["max_rel_error"] <= 1e-3
    assert equiv["min_order"] >= 1.8


def test_criterion_8_falsifier(dub3, chart3, extremal3):
    target = TargetSpec(dub3, extremal3.q[-1], chart3)
    sweep = competitor_sweep(dub3, extremal3, target, n_samples=200,
                             radius=0.1, seed=0)
    assert sweep.verdict == "no counterexample"
    assert sweep.min_arrival >= extremal3.horizon - 1e-6

    # the sphere's drift orbit closes after 2 pi: its target is its start
    sph3 = build_dubins_system("sphere", 3)
    loop = adjoint_trajectory(sph3, dubins_initial_covector(sph3),
                              np.linspace(0.0, 2.0 * np.pi, 129))
    assert np.max(np.abs(loop.q[-1] - np.eye(sph3.d))) <= 1e-12
    loop_target = TargetSpec(sph3, loop.q[-1], dubins_adapted_chart(sph3))
    refutation = competitor_sweep(sph3, loop, loop_target, n_samples=9,
                                  radius=0.1, seed=1)
    assert refutation.refuted
    assert refutation.witness["arrival"] < loop.horizon - 1e-6

    # a needle word's displacement scales at fitted order >= 1.8: the
    # product of its exact piece exponentials with the drift zeroed,
    # against its eps-linear part in the adapted frame
    driftless = dataclasses.replace(dub3, drift=np.zeros_like(dub3.drift))
    eps_grid = np.array([0.2, 0.1, 0.05, 0.025])
    t_vec, t_bar = np.array([0.05, 0.05, 0.04]), np.array([0.02, 0.03, 0.02])
    needles = needle_variation(np.zeros(eps_grid.size),
                               np.tile(t_vec, (eps_grid.size, 1)), eps_grid,
                               horizon=np.inf, m=dub3.m, t_bar=t_bar)
    ends = functools.reduce(
        np.matmul, _needle_exponentials(driftless, needles).swapaxes(0, 1))
    x_1 = chart3.solve_in_frame(np.zeros(chart3.n), sum(
        (a - b) * dub3.controlled[c]
        for a, b, c in zip(t_vec, t_bar, needles.channels)))
    discs = [np.linalg.norm(chart3.inverse(end) - eps * x_1)
             for eps, end in zip(eps_grid, ends)]
    assert np.polyfit(np.log(eps_grid), np.log(discs), 1)[0] >= 1.8


def test_criterion_9_determinism_and_convergence(dub3):
    fast = {"certificate": {"n_samples": 16, "grid_points": 9},
            "falsifier": {"n_samples": 8}, "galerkin_k": [8]}
    assert emit(run_check(fast)) == emit(run_check(fast))

    # RK4 with group projection on a smooth non-zero control: one-step
    # rk4_flow calls, each state projected before the next step
    def end(n_steps):
        grid = np.linspace(0, 1, n_steps + 1)
        times = rk4_stage_times(grid)
        m = np.eye(dub3.d)
        for k in range(n_steps):
            def rhs(i, m, k=k):
                t = times[3 * k + i]
                return m @ (dub3.drift + np.sin(2 * t) * dub3.controlled[0]
                            + np.cos(3 * t) * dub3.controlled[1])

            m = dub3.project_to_group(rk4_flow(rhs, grid[k:k + 2], m)[-1])
        return m

    finest = end(2 ** 12)
    steps = [2 ** k for k in (4, 5, 6, 7)]
    errs = [np.max(np.abs(end(s) - finest)) for s in steps]
    order = -np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert order >= 3.7


@pytest.mark.parametrize("space", ["sphere", "hyperbolic"])
@pytest.mark.parametrize("n", [3, 4])
def test_curved_pipeline_ends_in_verdict(space, n):
    """The full pipeline on a curved space form, certificate included,
    ends in a verdict, never in a numerical breakdown."""
    report = run_check({"system": {"kind": "dubins", "space_form": space,
                                   "N": n},
                        "horizon": 1.0})
    assert report["verdict"] != "error"
    assert report["stages"]["certificate"]["status"] != "error"


@pytest.mark.parametrize("horizon", [1.5, 2.0, 3.0, 5.0])
def test_hyperbolic_horizon_ladder_certifies(horizon):
    """Hyperbolic N=3 arcs up to H = 5, max|exp(H A0)| about 74, run the
    full default pipeline to `optimality certified`: every stop test on
    the group scales with max|g|^2."""
    report = run_check({"system": {"kind": "dubins", "space_form": "hyperbolic",
                                   "N": 3},
                        "horizon": horizon})
    assert report["verdict"] == "optimality certified"
