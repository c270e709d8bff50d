"""Tests for the closed-form plane exponential, with scipy's expm as the
oracle on every generator family the package exponentiates."""

import numpy as np
import pytest
from scipy.linalg import expm

from singcert.numerics import plane_exp
from singcert.systems import build_dubins_system

SPACES = ("euclidean", "sphere", "hyperbolic")


def assert_matches_expm(x, lam=None):
    """plane_exp(x) equals scipy's expm slice by slice to 1e-12 max(1,
    max|expm|)."""
    ref = expm(x)
    err = np.max(np.abs(plane_exp(x, lam) - ref), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=(-2, -1)))
    assert np.all(err <= 1e-12 * scale), float(np.max(err / scale))


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_plane_exp_matches_expm(space, n):
    system = build_dubins_system(space, n)
    axes = np.array(system.full_algebra_basis())
    # every chart axis at |x| <= 1, with the Taylor switch |lam| = 1e-3
    # approached from both sides
    knot = np.sqrt(1e-3)
    s = np.concatenate([np.linspace(-1.0, 1.0, 21),
                        knot * np.array([1 - 1e-9, 1 + 1e-9])])
    assert_matches_expm(s[:, None, None, None] * axes)
    # t A_0 for |t| <= 5
    assert_matches_expm(np.linspace(-5.0, 5.0, 41)[:, None, None]
                        * system.drift)
    # the needle pieces (eps^2 / r) A_0 + a A_c
    rng = np.random.default_rng(n)
    eps = rng.uniform(0.0, 0.1, 64)
    a = rng.uniform(-1.0, 1.0, 64)
    chans = rng.integers(system.m, size=64)
    pieces = ((eps ** 2 / system.R)[:, None, None] * system.drift
              + a[:, None, None] * np.array(system.controlled)[chans])
    assert_matches_expm(pieces)


@pytest.mark.parametrize("space", SPACES)
def test_plane_exp_near_zero_lam(space):
    """Stacks whose lam lies within 1e-10 of 0, on both sides: the Taylor
    branch and the closed form agree with expm there."""
    system = build_dubins_system(space, 4)
    axes = np.array(system.full_algebra_basis())
    s = np.array([-9e-6, -3e-6, -1e-8, 0.0, 1e-8, 3e-6, 9e-6])
    x = s[:, None, None, None] * axes
    lam = 0.5 * np.trace(x @ x, axis1=-2, axis2=-1)
    assert np.all(np.abs(lam) <= 1e-10)
    # rotations give lam < 0 and hyperbolic boosts lam > 0
    if space == "hyperbolic":
        assert np.any(lam > 0.0)
    if space != "euclidean":
        assert np.any(lam < 0.0)
    assert_matches_expm(x)


def test_plane_exp_takes_lam_and_square():
    """An explicit lam and square give the exponential of a linear map
    with x^3 = lam x whose tr(x^2)/2 is not lam."""
    x = np.zeros((4, 4))
    x[0, 1], x[1, 0] = 0.7, -0.7
    x[2, 3], x[3, 2] = 0.7, -0.7       # two equal planes: x^3 = -0.49 x
    lam = -0.49
    assert 0.5 * np.trace(x @ x) != pytest.approx(lam)
    assert_matches_expm(x, lam)
    assert np.array_equal(plane_exp(x, lam, x @ x), plane_exp(x, lam))


def test_plane_exp_long_rotation_does_not_overflow():
    """A rotation through a large angle evaluates no sinh."""
    system = build_dubins_system("sphere", 3)
    with np.errstate(all="raise"):
        g = plane_exp(1e3 * system.drift)
    assert np.max(np.abs(g @ g.T - np.eye(4))) <= 1e-12
