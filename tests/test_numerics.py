"""Tests for the closed-form plane exponential, with scipy's expm as the
oracle on every generator family the package exponentiates, and for the
log head's remainder bound, with the series log and scipy's logm as
oracles."""

import numpy as np
import pytest
from scipy.linalg import expm, logm
from scipy.optimize import brentq

from singcert.falsifier import LOG_RADIUS
from singcert.numerics import log_head, plane_exp, series_log
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


def _near_identity(system, delta, rng):
    """exp(s X) for a random X of the full algebra, with s chosen so that
    ||exp(s X) - I||_F = delta."""
    basis = np.array(system.full_algebra_basis())
    x = np.tensordot(rng.standard_normal(len(basis)), basis, 1)
    eye = np.eye(system.d)
    s = brentq(lambda a: np.linalg.norm(expm(a * x) - eye) - delta, 0.0,
               3.0 / np.linalg.norm(x), xtol=1e-300)
    return expm(s * x)


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_log_head_bound_holds(space, n):
    """||log g - head||_F stays under the bound of log_head from delta near
    0, where the head has no cancellation and only the rounding term is
    left, to delta just under the log radius, with the series log as the
    exact log. scipy's logm carries an absolute roundoff of a few u ||g||,
    which the rounding term does not cover, so it is compared where the
    remainder term is above 1e-13."""
    system = build_dubins_system(space, n)
    rng = np.random.default_rng(n)
    deltas = [1e-12, 1e-8, 1e-5, 1e-3, 0.05, 0.3, 0.6, 0.8,
              LOG_RADIUS - 1e-9]
    stack = np.array([_near_identity(system, delta, rng)
                      for delta in deltas for _ in range(4)])
    delta = np.linalg.norm(stack - np.eye(system.d), axis=(1, 2))
    assert np.allclose(delta, np.repeat(deltas, 4), rtol=1e-9, atol=0.0)
    head, bound = log_head(stack)
    assert np.all(np.isfinite(bound))
    # below delta = 1e-5 the remainder is under 1e-21 and the head agrees
    # with the log to the rounding term, a few u
    assert np.all(bound[delta < 1e-5] <= 1e-15)
    err = np.linalg.norm(series_log(stack) - head, axis=(1, 2))
    assert np.all(err <= bound)
    far = delta >= 1e-3
    err = np.linalg.norm([logm(g).real for g in stack[far]] - head[far],
                         axis=(1, 2))
    assert np.all(err <= bound[far])


def test_log_head_bound_is_inf_outside_the_series_radius():
    """At ||g - I||_F >= 1 the Mercator series is not summed: inf."""
    system = build_dubins_system("sphere", 3)
    rng = np.random.default_rng(0)
    stack = np.array([_near_identity(system, 1.0 + 1e-9, rng),
                      _near_identity(system, 0.99, rng),
                      plane_exp(1.5 * system.drift)])
    _, bound = log_head(stack)
    assert bound[0] == bound[2] == np.inf and np.isfinite(bound[1])


def test_series_log_raises_where_the_series_diverges():
    """An eigenvalue -3 puts the Cayley series off its radius: its terms
    overflow, and the infinite sum is an error, not a converged log. A
    rotation by pi has eigenvalue -1, so g + I is singular and the series
    cannot start. Each raises the series' own error, for one matrix and
    for a stack holding one such member, with no numpy warning."""
    half_turn = np.diag([-1.0, -1.0, 1.0])
    with np.errstate(all="raise"):
        for mat in (np.diag([-3.0, 1.0, 1.0]), half_turn,
                    np.array([np.eye(3), half_turn])):
            with pytest.raises(np.linalg.LinAlgError,
                               match="^matrix logarithm series did not "
                                     "converge$"):
                series_log(mat)
    assert np.all(np.isfinite(series_log(np.diag([0.5, 1.0, 2.0]))))
