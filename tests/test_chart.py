"""Tests for the adapted charts."""

import numpy as np
import pytest
from scipy.linalg import expm

from singcert.algebra import commutator, pairing
from singcert.chart import GroupChart, dubins_adapted_chart
from singcert.extremal import verify_structure_properties
from singcert.systems import build_dubins_system


@pytest.fixture(scope="module")
def chart3():
    sys_ = build_dubins_system("euclidean", 3)
    return sys_, dubins_adapted_chart(sys_)


def test_forward_at_origin_is_basepoint(chart3):
    _, chart = chart3
    assert np.allclose(chart.forward(np.zeros(chart.n)), np.eye(4))


def test_forward_differential_at_origin(chart3):
    """DUpsilon(0) column j equals the j-th frame generator at the basepoint."""
    _, chart = chart3
    h = 1e-6
    for j in range(chart.n):
        e = np.zeros(chart.n)
        e[j] = h
        col = (chart.forward(e) - chart.forward(-e)) / (2 * h)
        assert np.allclose(col, chart.frame_algebra[j], atol=1e-9)


def test_frame_matches_fd_of_forward(chart3):
    _, chart = chart3
    rng = np.random.default_rng(3)
    x = 0.1 * rng.standard_normal(chart.n)
    v = chart.frame(x)
    g = chart.forward(x)
    h = 1e-6
    for j in range(chart.n):
        e = np.zeros(chart.n)
        e[j] = h
        col = (chart.forward(x + e) - chart.forward(x - e)) / (2 * h)
        assert np.allclose(col, g @ v[j], atol=1e-8)


def test_inverse_roundtrip(chart3):
    """Newton inversion recovers random chart points to 1e-9."""
    _, chart = chart3
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(-0.1, 0.1, chart.n)
        back = chart.inverse(chart.forward(x))
        assert np.max(np.abs(back - x)) <= 1e-9


def test_controlled_flows_fix_transverse_coordinates(chart3):
    """L_f x_i = 0 for f in the controlled algebra and i > R, exactly."""
    sys_, chart = chart3
    rng = np.random.default_rng(6)
    x = 0.05 * rng.standard_normal(chart.n)
    g = chart.forward(x)
    for a in list(sys_.controlled) + [sys_.lie_closure_basis[2]]:
        moved = chart.inverse(g @ expm(0.05 * a), x0=x)
        assert np.max(np.abs(moved[chart.R:] - x[chart.R:])) <= 1e-9


def test_reference_axis(chart3):
    """The drift orbit through the basepoint is the x_n axis."""
    sys_, chart = chart3
    x = chart.inverse(expm(0.4 * sys_.drift))
    expect = np.zeros(chart.n)
    expect[-1] = 0.4
    assert np.max(np.abs(x - expect)) <= 1e-10


def test_p_hat_structure(chart3):
    _, chart = chart3
    assert chart.p_hat[-1] == 1.0
    assert np.max(np.abs(chart.p_hat[:-1])) == 0.0


def test_covector_roundtrip(chart3):
    """Chart momentum conversion is exact on algebra pairings."""
    sys_, chart = chart3
    rng = np.random.default_rng(7)
    x = 0.1 * rng.standard_normal(chart.n)
    y = rng.standard_normal(chart.n)
    p = chart.covector_from_chart(x, y)
    frame = chart.frame(x)
    assert np.allclose([pairing(p, v) for v in frame], y, atol=1e-10)
    # pairings with arbitrary algebra elements are reproduced
    a = sum(c * b for c, b in zip(rng.standard_normal(chart.n), frame))
    coeffs = chart.solve_in_frame(x, a)
    assert pairing(p, a) == pytest.approx(float(coeffs @ y), abs=1e-10)


def test_field_components_unit_vectors_at_origin(chart3):
    """Pushing frame generators through the chart gives unit vectors at 0."""
    _, chart = chart3
    for j, b in enumerate(chart.frame_algebra):
        c = chart.solve_in_frame(np.zeros(chart.n), b)
        expect = np.zeros(chart.n)
        expect[j] = 1.0
        assert np.allclose(c, expect, atol=1e-12)


def test_frame_pseudo_inverse(chart3):
    """The chart frame is the system's algebra basis; b_pinv inverts it."""
    sys_, chart = chart3
    basis = sys_.algebra_basis
    assert len(chart.frame_algebra) == len(basis) == chart.n
    for j, (b, f) in enumerate(zip(basis, chart.frame_algebra)):
        assert np.array_equal(b, f)
        expect = np.zeros(chart.n)
        expect[j] = 1.0
        assert np.allclose(chart.b_pinv @ b.ravel(), expect, atol=1e-12)


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_stacked_calls_equal_per_point_calls(space):
    """forward, forward_inv, frame and covector_from_chart on a (P, n)
    stack give the rows of the single-point calls; forward is the product
    of scipy's axis exponentials and forward_inv its inverse."""
    sys_ = build_dubins_system(space, 4)
    chart = dubins_adapted_chart(sys_)
    rng = np.random.default_rng(8)
    xs = rng.uniform(-0.5, 0.5, (6, chart.n))
    xs[1] = 0.0
    xs[2, ::2] = 0.0
    ys = rng.standard_normal((6, chart.n))
    for method, args in (("forward", (xs,)), ("forward_inv", (xs,)),
                         ("frame", (xs,)), ("covector_from_chart", (xs, ys))):
        stacked = getattr(chart, method)(*args)
        for k in range(len(xs)):
            single = getattr(chart, method)(*(a[k] for a in args))
            assert np.max(np.abs(stacked[k] - single)) <= 1e-15, (method, k)
    for x, g, g_inv in zip(xs, chart.forward(xs), chart.forward_inv(xs)):
        ref = np.eye(sys_.d)
        for j in range(chart.n - 1, -1, -1):
            ref = ref @ expm(x[j] * chart.frame_algebra[j])
        assert np.max(np.abs(g - ref)) <= 1e-13
        assert np.max(np.abs(g_inv @ g - np.eye(sys_.d))) <= 1e-14


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic"])
def test_axis_premise_is_a_hypothesis(space):
    """An axis B = A_1 + [A_2, A_3] on N = 4 rotates the disjoint planes of
    e1, e2 and of e3, e4, so B^2 = -(both projections), lam = -2 and
    B^3 - lam B = B: the chart takes it, and the hypothesis
    chart_axes_single_plane fails with residual max|B| = 1 over its bound
    1e-12, which the Dubins chart meets."""
    system = build_dubins_system(space, 4)
    chart = dubins_adapted_chart(system)
    a1, a2, a3 = system.controlled
    frame = chart.frame_algebra.copy()
    frame[0] = a1 + commutator(a2, a3)
    for axes, residual in ((chart, 0.0), (GroupChart(frame, chart.R,
                                                     chart.p_hat), 1.0)):
        check = {h.name: h for h in verify_structure_properties(
            system, axes)}["chart_axes_single_plane"]
        assert check.residual == residual
        assert check.passed == (residual == 0.0)
        assert check.detail == {"bound": 1e-12}
