"""Matrix Lie algebra primitives: commutators, bracket words, spans.

Bracket words are nested tuples over generator indices. An ``int`` k refers
to generator k (0 is reserved for the drift wherever a system supplies one),
and a pair ``(a, b)`` means the commutator of the two sub-words. Examples:
``(1, 2)`` is [A1, A2] and ``(1, (2, 0))`` is [A1, [A2, A0]].
"""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-10


class DimensionMismatchError(ValueError):
    pass


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator AB - BA, broadcast over the leading axes of
    stacks of square matrices."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim < 2 or a.shape[-2:] != b.shape[-2:] or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"incompatible shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


def jacobi_residual(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Max-norm residual of [a,[b,c]] + [b,[c,a]] + [c,[a,b]]."""
    r = (
        commutator(a, commutator(b, c))
        + commutator(b, commutator(c, a))
        + commutator(c, commutator(a, b))
    )
    return float(np.max(np.abs(r)))


def numerical_rank(stack: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Rank of a (k, dim) stack of flattened matrices by relative SV cutoff."""
    if stack.size == 0:
        return 0
    s = np.linalg.svd(stack, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def span_contains(basis, mats) -> float:
    """Largest residual (max norm) of mats, one matrix or a (k, d, d) stack,
    after orthogonal projection onto span(basis): one least-squares solve
    for the whole stack."""
    mats = np.asarray(mats, dtype=float)
    if len(basis) == 0:
        return float(np.max(np.abs(mats)))
    rhs = mats.reshape(-1, mats.shape[-2] * mats.shape[-1]).T
    stack = np.array([b.ravel() for b in basis]).T
    coeff, *_ = np.linalg.lstsq(stack, rhs, rcond=None)
    return float(np.max(np.abs(rhs - stack @ coeff)))


def so_residual(a: np.ndarray) -> float:
    """Membership residual in so(d): max-norm of A + A^T, over a stack too."""
    return float(np.max(np.abs(a + np.swapaxes(a, -1, -2))))


def pairing(p: np.ndarray, mats) -> np.ndarray:
    """Trace pairing <p, A> = trace(p^T A) on the ambient matrix space, of
    one covector or an (S, d, d) stack against one matrix or a stack of
    them: shape p.shape[:-2] + mats.shape[:-2], a 0-d array for one pair."""
    return np.tensordot(p, np.asarray(mats), axes=([-2, -1], [-2, -1]))
