"""Tests for matrix Lie algebra primitives."""

import numpy as np
import pytest

from singcert import algebra
from singcert.algebra import (
    DimensionMismatchError,
    commutator,
    jacobi_residual,
    numerical_rank,
    pairing,
    span_contains,
)


def so3_basis():
    e = []
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        a = np.zeros((3, 3))
        a[i, j] = 1.0
        a[j, i] = -1.0
        e.append(a)
    return e


def test_commutator_self_is_zero():
    """[A, A] = 0."""
    a = np.arange(9.0).reshape(3, 3)
    assert np.max(np.abs(commutator(a, a))) == 0.0


def test_commutator_rejects_mismatch():
    with pytest.raises(DimensionMismatchError):
        commutator(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatchError):
        commutator(np.ones(3), np.ones(3))


def test_commutator_broadcasts_over_stacks():
    """A stack against one matrix, and a column of a stack against the
    stack, give each member's commutator."""
    e = np.array(so3_basis())
    assert np.array_equal(commutator(e, e[0]),
                          [commutator(a, e[0]) for a in e])
    assert np.array_equal(commutator(e[:, None], e),
                          [[commutator(a, b) for b in e] for a in e])


def test_jacobi_identity_so3():
    """Jacobi residual vanishes to roundoff for so(3) triples."""
    e1, e2, e3 = so3_basis()
    assert jacobi_residual(e1, e2, e3) <= 1e-12


def test_numerical_rank_thresholding():
    rows = np.array([[1.0, 0.0], [0.0, 1e-14], [1.0, 1e-14]])
    assert numerical_rank(rows) == 1
    assert numerical_rank(np.zeros((2, 4))) == 0


def test_span_contains_residual():
    e1, e2, e3 = so3_basis()
    assert span_contains([e1, e2], e1 + 2 * e2) <= 1e-12
    assert span_contains([e1, e2], e3) > 0.5


def test_span_contains_stack_takes_the_largest_residual():
    """A (k, d, d) stack reports the largest residual of its members."""
    e1, e2, e3 = so3_basis()
    mats = np.array([e1 + 2 * e2, 0.5 * e3, e3 + e1])
    assert span_contains([e1, e2], mats) == max(
        span_contains([e1, e2], a) for a in mats)
    assert span_contains([], mats) == float(np.max(np.abs(mats)))


def test_structure_residuals():
    e1, _, _ = so3_basis()
    assert algebra.so_residual(e1) == 0.0
    assert algebra.so_residual(np.array([e1, e1 + np.eye(3)])) == 2.0


def test_trace_pairing():
    p = np.array([[1.0, 2.0], [3.0, 4.0]])
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert pairing(p, a) == pytest.approx(np.trace(p.T @ a))
    # an (S, d, d) stack against a (k, d, d) stack: the (S, k) table of
    # the single-pair values
    rng = np.random.default_rng(0)
    ps, mats = rng.standard_normal((5, 3, 3)), rng.standard_normal((4, 3, 3))
    table = pairing(ps, mats)
    assert table.shape == (5, 4)
    assert np.array_equal(table, [[pairing(q, b) for b in mats] for q in ps])
