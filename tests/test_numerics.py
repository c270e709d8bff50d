"""Tests for the closed-form plane and quartic exponentials, with scipy's
expm as the oracle on every generator family the package exponentiates,
and for the log head's remainder bound, with the series log and scipy's
logm as oracles."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from scipy.linalg import expm, logm
from scipy.optimize import brentq

from singcert.falsifier import LOG_RADIUS
from singcert.numerics import (
    log_head,
    plane_exp,
    plane_series,
    quartic_exp,
    series_log,
)
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
    axes = system.algebra_basis
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
    axes = system.algebra_basis
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


@pytest.mark.parametrize("lam, ulps", [
    (s * lam, ulps) for s in (1.0, -1.0)
    for lam, ulps in ((1.0001e-3, 2), (2e-3, 2), (9e-3, 2), (0.5, 2),
                      (0.999, 2), (1.0, 8), (1.01, 8), (3.0, 8))])
def test_plane_series_matches_exact_sums(lam, ulps):
    """S1 .. S4 agree with their series summed exactly in rationals at the
    float lam: within 2 ulp where S3 and S4 take their Taylor series,
    |lam| < 1, whose quotients (S1 - 1)/lam and (S2 - 1/2)/lam cancel
    there, and within 8 ulp at and past that switch."""
    exact = Fraction(lam)
    for j, got in enumerate(plane_series(np.array(lam), tails=True), 1):
        value = sum(exact ** k / factorial(2 * k + j) for k in range(40))
        off = abs(Fraction(float(got)) - value)
        assert off <= ulps * Fraction(np.spacing(float(value))), (j, lam)


def quartic_generator(lam: float, seed: int) -> np.ndarray:
    """A 5 x 5 matrix with x^4 = lam x^2 but x^3 != lam x, in a random
    orthonormal basis: a plane generator (x^3 = lam x) beside a nilpotent
    2 x 2 block, or at lam = 0 a nilpotent 4 x 4 Jordan block."""
    block = np.zeros((5, 5))
    if lam == 0.0:
        block[0, 1] = block[1, 2] = block[2, 3] = 1.0
    else:
        block[0, 1], block[1, 0] = 1.0, np.sign(lam)
        block[3, 4] = 1.0
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((5, 5)))
    return q @ block @ q.T


@pytest.mark.parametrize("lam", [-1.0, 0.0, 1.0])
def test_quartic_exp_matches_expm(lam):
    """quartic_exp(t x) equals scipy's expm to 1e-12 max(1, max|expm|) for
    |t| <= 5, and on both sides of the Taylor switch |lam t^2| = 1e-3."""
    x = quartic_generator(lam, 7)
    sq, cube = x @ x, x @ x @ x
    assert np.max(np.abs(sq @ sq - lam * sq)) <= 1e-14
    assert np.max(np.abs(cube - lam * x)) >= 0.1
    knot = np.sqrt(1e-3)
    ts = np.concatenate([np.linspace(-5.0, 5.0, 41),
                         knot * np.array([1 - 1e-9, 1 + 1e-9]),
                         [1e-8, 1e-4, 0.02, 0.05]])
    got = quartic_exp(ts[:, None, None] * x, lam * ts ** 2,
                      (ts ** 2)[:, None, None] * sq,
                      (ts ** 3)[:, None, None] * cube)
    ref = expm(ts[:, None, None] * x)
    err = np.max(np.abs(got - ref), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(ref), axis=(-2, -1)))
    assert np.all(err <= 1e-12 * scale), float(np.max(err / scale))


def _near_identity(system, delta, rng):
    """exp(s X) for a random X of the full algebra, with s chosen so that
    ||exp(s X) - I||_F = delta."""
    basis = system.algebra_basis
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


@pytest.mark.parametrize("space", SPACES)
def test_series_log_members_match_their_own_calls(space):
    """Each member of a stack that mixes states near I with states near
    the log radius has, bit for bit, the log of its own call: a state's
    log does not depend on what shares its stack."""
    system = build_dubins_system(space, 4)
    rng = np.random.default_rng(11)
    stack = np.array([_near_identity(system, delta, rng)
                      for delta in (1e-12, 1e-6, 0.01, 0.3, 0.6, 0.85)
                      for _ in range(3)])[rng.permutation(18)]
    logs = series_log(stack)
    for g, log in zip(stack, logs):
        assert np.array_equal(log, series_log(g))
    assert np.array_equal(series_log(stack[3:7]), logs[3:7])
    assert np.array_equal(series_log(stack.reshape(3, 6, system.d, system.d)),
                          logs.reshape(3, 6, system.d, system.d))


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
