"""Control-affine systems on matrix groups.

:class:`MatrixGroupSystem` models left-invariant dynamics on a matrix group,
with exact commutator brackets. The generalized Dubins family on the three
space forms is built by :func:`build_dubins_system`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .algebra import commutator


class SpaceForm(str, enum.Enum):
    EUCLIDEAN = "euclidean"
    SPHERE = "sphere"
    HYPERBOLIC = "hyperbolic"


EPSILON = {SpaceForm.EUCLIDEAN: 0, SpaceForm.SPHERE: 1, SpaceForm.HYPERBOLIC: -1}


# unit roundoff u, and the step cap of the polar iteration: from singular
# values up to 2^30 its steps halve them to O(1) and then converge
# quadratically
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_POLAR_STEPS = 40


class ProjectionError(RuntimeError):
    """A projection onto the group or onto the singular surface failed."""


def resolve_word(word, drift: np.ndarray, controlled: list[np.ndarray]) -> np.ndarray:
    """Evaluate a bracket word to a matrix. 0 is the drift, i >= 1 controlled."""
    if isinstance(word, (int, np.integer)):
        if word == 0:
            return drift
        return controlled[word - 1]
    a, b = word
    return commutator(
        resolve_word(a, drift, controlled), resolve_word(b, drift, controlled)
    )


@dataclass(frozen=True)
class MatrixGroupSystem:
    """Control-affine left-invariant system g' = g(A0 + sum u_i A_i).

    Vector fields are f_i(g) = g A_i; brackets reduce to matrix commutators.
    """

    space_form: SpaceForm
    N: int
    drift: np.ndarray
    controlled: tuple[np.ndarray, ...]

    @property
    def d(self) -> int:
        return self.drift.shape[0]

    @property
    def m(self) -> int:
        return len(self.controlled)

    @property
    def R(self) -> int:
        """len(lie_closure_basis), the m fields and m(m-1)/2 brackets,
        without forming the table."""
        return self.m * (self.m + 1) // 2

    @property
    def n(self) -> int:
        return self.N * (self.N + 1) // 2

    @property
    def epsilon(self) -> int:
        return EPSILON[self.space_form]

    def bracket_matrix(self, word) -> np.ndarray:
        """Matrix of the bracket word, word by word: the oracle
        hamiltonian_bracket reads it. The stages read the bracket tables
        below, formed by stacked commutators of the current drift and
        controlled fields on each access (a system built by
        dataclasses.replace reads its own brackets)."""
        return resolve_word(word, self.drift, list(self.controlled))

    @property
    def pair_brackets(self) -> np.ndarray:
        """[A_i, A_j] at [i - 1, j - 1], an (m, m, d, d) array."""
        ai = np.array(self.controlled)
        return commutator(ai[:, None], ai)

    @property
    def derived(self) -> np.ndarray:
        """The [A_i, A_j] with i < j, row-major: an (m(m-1)/2, d, d) array."""
        return self.pair_brackets[np.triu_indices(self.m, 1)]

    @property
    def drift_brackets(self) -> np.ndarray:
        """[A0, A_i] at [i - 1], an (m, d, d) array."""
        return commutator(self.drift, np.array(self.controlled))

    @property
    def legendre_brackets(self) -> np.ndarray:
        """[A_i, [A_j, A0]] at [i - 1, j - 1], an (m, m, d, d) array."""
        return commutator(np.array(self.controlled)[:, None],
                          -self.drift_brackets)

    @property
    def lie_closure_basis(self) -> np.ndarray:
        """Lie(A_i) at bracket depth 2, A_1..A_m then [A_i, A_j] (i < j):
        an (R, d, d) array, the first R rows of algebra_basis.
        extremal.verify_structure_properties checks it closed."""
        return np.concatenate([np.array(self.controlled), self.derived])

    @property
    def algebra_basis(self) -> np.ndarray:
        """Basis of Lie(G) ordered A_1..A_m, [A_i, A_j] (i < j), [A0, A_i],
        A0: an (n, d, d) array."""
        return np.concatenate([self.lie_closure_basis, self.drift_brackets,
                               self.drift[None]])

    def group_residual(self, g: np.ndarray):
        """Distance of g, or of each member of a (..., d, d) stack, from the
        group {g K g^T = K} with K = diag(eps, 1, ..., 1), and g_00 = 1 on
        SE(N): max |g K g^T - K|, |P (g^T K g - K) P| (P = K^2), |g_00 - 1|."""
        k = np.array([self.epsilon] + [1.0] * (g.shape[-1] - 1))
        gt = np.swapaxes(g, -1, -2)
        forms = np.stack(((g * k) @ gt, np.outer(k * k, k * k) * ((gt * k) @ g)))
        res = np.max(np.abs(forms - np.diag(k)), axis=(0, -2, -1))
        return res if self.epsilon else np.maximum(res, abs(g[..., 0, 0] - 1))

    def inverse(self, g: np.ndarray) -> np.ndarray:
        """Inverse of a group element, or of each member of a (..., d, d)
        stack, in closed form: K g^T K (K = diag(eps, 1, ..., 1)) on
        SO(N+1) and SO(1, N), and [[1, 0], [-R^T b, R^T]] for
        g = [[1, 0], [b, R]] on SE(N)."""
        gt = np.swapaxes(g, -1, -2)
        if self.epsilon:
            k = np.array([self.epsilon] + [1.0] * (g.shape[-1] - 1))
            return k[:, None] * gt * k
        out = gt.copy()
        out[..., 0, 1:] = 0.0
        out[..., 1:, 0] = -(gt[..., 1:, 1:] @ g[..., 1:, :1])[..., 0]
        return out

    def project_to_group(self, g: np.ndarray) -> np.ndarray:
        """Project a near-group matrix, or a (..., d, d) stack, onto the group
        by Newton's generalized polar iteration x <- x + P (K x^-T K - x) P / 2:
        the polar step on SO(N+1), the Lorentz step on SO(1, N), and on SE(N),
        once the first row is e_0, the polar step of the rotation block.

        A member stops once group_residual(x) <= (d+1)^2 u max(1, max|x|)^2,
        u the unit roundoff. That is what rounding leaves: the rounded image
        x of a group element has |x K x^T - K| <= 2u |x||x|^T, and forming
        x K x^T by length-d dot products adds d u |x||x|^T (to first order,
        and likewise for x^T K x); |x||x|^T <= d max|x|^2 entrywise, and one
        more u max(1, max|x|)^2 covers the second-order terms. A member under
        the bound comes back unchanged; ProjectionError counts those still
        over it after _POLAR_STEPS steps."""
        d = g.shape[-1]
        k = np.array([self.epsilon] + [1.0] * (d - 1))
        x = g.reshape(-1, d, d).copy()
        if not self.epsilon:
            x[:, 0, :] = np.eye(d)[0]
        active = np.arange(x.shape[0])
        for step in range(_POLAR_STEPS + 1):
            xa = x[active]
            over = ~(self.group_residual(xa) <= (d + 1) ** 2 * _UNIT_ROUNDOFF
                     * np.maximum(1.0, np.max(np.abs(xa), axis=(-2, -1))) ** 2)
            if not over.any():
                return x.reshape(g.shape)
            if step == _POLAR_STEPS:
                raise ProjectionError(f"group projection did not converge for "
                                      f"{over.sum()} of {x.shape[0]} matrices")
            active, xa = active[over], xa[over]
            x[active] = xa + 0.5 * np.outer(k * k, k * k) * (
                np.outer(k, k) * np.swapaxes(np.linalg.inv(xa), -1, -2) - xa)


def _dubins_generators(space_form: SpaceForm, N: int) -> tuple[np.ndarray, list[np.ndarray]]:
    eps = EPSILON[space_form]
    d = N + 1
    a0 = np.zeros((d, d))
    a0[1, 0] = 1.0
    a0[0, 1] = -float(eps)
    controlled = []
    for j in range(1, N):
        aj = np.zeros((d, d))
        # (A_j)_{1,j+1} = -1, (A_j)_{j+1,1} = 1 in the lower N x N block.
        aj[1, j + 2 - 1] = -1.0
        aj[j + 2 - 1, 1] = 1.0
        controlled.append(aj)
    return a0, controlled


def build_dubins_system(space_form: SpaceForm | str, N: int) -> MatrixGroupSystem:
    """Generalized Dubins system on R^N, S^N or H^N, embedded in GL(N+1).

    Requires N >= 3 so that the problem is genuinely multi-input (m >= 2).
    The structure the paper assumes of it is checked, and reported, by
    extremal.verify_structure_properties once per run.
    """
    space_form = SpaceForm(space_form)
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    drift, controlled = _dubins_generators(space_form, N)
    return MatrixGroupSystem(
        space_form=space_form,
        N=N,
        drift=drift,
        controlled=tuple(controlled),
    )
