"""The decision ladder: which runs certify, and on what evidence.

On the unit sphere the Lagrangian field started at rho, the graph of
d(alpha_rho), is focal where cot t = -rho, first at t = pi - arctan(1/rho):
its base projection is singular there. So a certificate at rho covers a
horizon H only when pi - arctan(1/rho) > H, and the rho the certificate
takes is the one the conjugate-point test measured.

Every expected value below follows from the theory, not from a run:

- the arc is a relative equilibrium, so every necessary condition holds
  at every horizon on all three forms;
- the Jacobi equation J'' + kappa J = 0 has its first conjugate time at
  pi / sqrt(kappa) for kappa > 0 and none for kappa <= 0 (do Carmo,
  Riemannian Geometry, 1992, ch. 5), so on the unit sphere the second
  variation is coercive exactly when H < pi;
- past the first conjugate time the arc is not optimal (Goh, SIAM J.
  Control 4, 1966; Agrachev & Sachkov, Control Theory from the Geometric
  Viewpoint, 2004, ch. 20-21);
- N enters only as the multiplicity N - 1 of each conjugate time, so
  every verdict and the certificate's rho are the same for N = 3..6.

A row the code gets wrong today is a strict xfail whose reason names the
defect and the roadmap item that fixes it; with `strict`, a row that
starts to pass fails the suite until that item removes its marker. The
number of xfail rows is the open "decides" count.
"""

import functools

import numpy as np
import pytest

from singcert.chart import dubins_adapted_chart
from singcert.extremal import adjoint_trajectory, dubins_initial_covector
from singcert.geometry import CERTIFICATE_MARGIN, certificate_check
from singcert.numerics import time_grid
from singcert.pipeline import run_check
from singcert.secondvar import DEFAULT_RHO_GRID
from singcert.systems import build_dubins_system

# the sphere's horizons past its first conjugate time pi
PAST_PI = (3.3, 4.0, 5.0)


def xfail(reason: str):
    """A ladder row the code gets wrong today, failing by its assertion."""
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=reason)


@functools.lru_cache(maxsize=None)
def run(space: str, n: int, horizon: float, checks: tuple) -> dict:
    """The report of one ladder run, shared by the rows that read it."""
    return run_check({"system": {"kind": "dubins", "space_form": space,
                                 "N": n},
                      "horizon": horizon, "checks": list(checks)})


def focal_time(rho: float) -> float:
    """First focal time of the rho field on the unit sphere."""
    return np.pi - np.arctan(1.0 / rho)


# at H = 3.12 < pi the det ratio x^(N-1) of today's conjugate-point test
# falls under det_floor 0.1 for N >= 4 (0.0558, 0.0213 and 0.0081 at
# N = 4, 5 and 6), so that test says not coercive and the run is not
# certified
_RATIO_UNDER_FLOOR = xfail(
    "the conjugate-point test's det ratio shrinks as x^(N-1) under its "
    "det_floor, so it says not coercive before pi at N >= 4 (items 1 and 2: "
    "a crossing count, and verdicts that do not depend on N)")


@pytest.mark.parametrize("n, horizon", [
    (3, 1.0), (3, 2.5), (3, 3.0), (3, 3.12),
    (4, 1.0), (4, 2.5), (4, 3.0),
    pytest.param(4, 3.12, marks=_RATIO_UNDER_FLOOR),
    pytest.param(5, 3.12, marks=_RATIO_UNDER_FLOOR),
    pytest.param(6, 3.12, marks=_RATIO_UNDER_FLOOR)])
def test_sphere_certifies_at_the_measured_rho(n, horizon):
    """The run certifies, its certificate runs at the conjugate-point
    test's rho, and that rho's field is not focal before the horizon."""
    report = run("sphere", n, horizon,
                 ("conditions", "coercivity", "certificate"))
    stages = report["stages"]
    assert report["verdict"] == "optimality certified"
    rho = stages["certificate"]["report"]["rho"]
    assert rho == stages["coercivity"]["conjugate_point"]["rho"]
    assert focal_time(rho) > horizon


def test_rho_one_field_is_focal_before_the_horizon():
    """At rho = 1 the sphere field is focal at 3 pi / 4 < H = 2.5: a
    certificate grid that holds that time finds the base projection
    singular there, under the margin."""
    system = build_dubins_system("sphere", 3)
    horizon = 2.5
    trajectory = adjoint_trajectory(system, dubins_initial_covector(system),
                                    time_grid(horizon, 0.01))
    focal = focal_time(1.0)
    grid = np.union1d(np.linspace(0.0, horizon, 33), [focal])
    report = certificate_check(system, trajectory,
                               dubins_adapted_chart(system), rho=1.0,
                               grid=grid, n_samples=16)
    assert focal == pytest.approx(0.75 * np.pi, rel=1e-15)
    assert report.min_singular_value < CERTIFICATE_MARGIN
    assert grid[np.argmin(report.singular_values)] == focal
    assert report.verdict == "not certified"


@pytest.mark.parametrize("n", [
    3, 4,
    pytest.param(5, marks=xfail(
        "the certificate takes the first rho whose det ratio x^(N-1) clears "
        "det_floor, 1/32 at N = 5 (item 2: the first rho with crossing count "
        "0, the same for every N)")),
    pytest.param(6, marks=xfail(
        "the certificate takes the first rho whose det ratio x^(N-1) clears "
        "det_floor, 1/8 at N = 6 (item 2: the first rho with crossing count "
        "0, the same for every N)"))])
def test_sphere_certificate_rho_does_not_depend_on_n(n):
    """At H = 1 every field of the rho grid is free of focal points, the
    earliest at pi - arctan(64) > 1, so the certificate takes the grid's
    first rho, 2^-6, at every N."""
    assert focal_time(DEFAULT_RHO_GRID[0]) > 1.0
    report = run("sphere", n, 1.0, ("certificate",))
    assert report["stages"]["certificate"]["report"]["rho"] == 2.0 ** -6


_GRID_MISSES_PI = xfail(
    "the conjugate-point test samples det X_rho on a grid and reads a det "
    "ratio above det_floor past pi, so it says coercive (item 1: a crossing "
    "count on the closed-form flow)")


@pytest.mark.parametrize("n, horizon", [
    pytest.param(3, 3.3, marks=_GRID_MISSES_PI),
    pytest.param(3, 4.0, marks=_GRID_MISSES_PI),
    pytest.param(3, 5.0, marks=_GRID_MISSES_PI),
    pytest.param(4, 3.3, marks=_GRID_MISSES_PI),
    (4, 4.0), (4, 5.0), (5, 3.3), (5, 4.0), (5, 5.0),
    (6, 3.3), (6, 4.0), (6, 5.0)])
def test_sphere_conjugate_point_test_fails_past_pi(n, horizon):
    """Past pi, the first conjugate time, the second variation is not
    coercive: the conjugate-point test says so."""
    report = run("sphere", n, horizon, ("conditions", "coercivity"))
    assert report["stages"]["conditions"]["status"] == "passed"
    verdict = report["stages"]["coercivity"]["conjugate_point"]["verdict"]
    assert verdict == "not coercive"


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("horizon", PAST_PI)
@xfail("a failed coercivity stage gives not certified, and no run carries "
       "the negative Galerkin level as a witness (item 4: the witness and "
       "the verdict not optimal)")
def test_sphere_past_pi_is_not_optimal(n, horizon):
    """Past pi the arc is not optimal, and the run says so."""
    report = run("sphere", n, horizon, ("conditions", "coercivity"))
    assert report["verdict"] == "not optimal"


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("horizon", [10.0, 15.0, 20.0, 30.0])
@xfail("the battery reads the covector as M^T p0 M^-T, whose u e^{2H} "
       "roundoff fails normality at H = 10 and 15, and the Legendre form's "
       "conditioning error ends the stage at H = 20 and 30 (item 6: the "
       "transported pairings)")
def test_hyperbolic_conditions_hold_on_long_arcs(n, horizon):
    """The arc is a relative equilibrium: every necessary condition holds
    at every horizon."""
    report = run("hyperbolic", n, horizon, ("conditions",))
    assert report["stages"]["conditions"]["status"] == "passed"
