"""The decision ladder: which runs certify, and on what evidence.

On the unit sphere the Lagrangian field started at rho, the graph of
d(alpha_rho), is focal where cot t = -rho, first at t = pi - arctan(1/rho):
its base projection is singular there. So a certificate at rho covers a
horizon H only when pi - arctan(1/rho) > H, and the rho the certificate
takes is the one the conjugate-point test measured.
"""

import numpy as np
import pytest

from singcert.chart import dubins_adapted_chart
from singcert.extremal import adjoint_trajectory, dubins_initial_covector
from singcert.geometry import CERTIFICATE_MARGIN, certificate_check
from singcert.numerics import time_grid
from singcert.pipeline import run_check
from singcert.systems import build_dubins_system


def focal_time(rho: float) -> float:
    """First focal time of the rho field on the unit sphere."""
    return np.pi - np.arctan(1.0 / rho)


@pytest.mark.parametrize("n, horizon", [
    (3, 1.0), (3, 2.5), (3, 3.0), (3, 3.12),
    (4, 1.0), (4, 2.5), (4, 3.0)])
def test_sphere_certifies_at_the_measured_rho(n, horizon):
    """The run certifies, its certificate runs at the conjugate-point
    test's rho, and that rho's field is not focal before the horizon."""
    report = run_check({
        "system": {"kind": "dubins", "space_form": "sphere", "N": n},
        "horizon": horizon, "checks": ["conditions", "coercivity",
                                       "certificate"]})
    stages = report["stages"]
    rho = stages["certificate"]["report"]["rho"]
    assert report["verdict"] == "optimality certified"
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
