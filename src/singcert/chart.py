"""Adapted coordinate charts around a reference point.

The chart composes exponential flows of a frame of fields. The first R
frame fields span the Lie algebra of the controlled fields, so right
multiplication by that subgroup moves only the first R coordinates; the
functions x_{R+1}..x_n annihilate the controlled algebra exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import logm

from .numerics import damped_newton, plane_exp
from .systems import MatrixGroupSystem


# relative stop tolerance and step cap of the Newton chart inversion
INVERSE_TOL = 1e-13
INVERSE_MAX_ITER = 60


class OutOfChartError(RuntimeError):
    """Newton inversion failed to converge inside the chart radius."""


@dataclass
class GroupChart:
    """Adapted chart on a matrix group, centered at the identity.

    Forward map: x -> exp(x_n B_n) @ ... @ exp(x_1 B_1), so the chart is
    the composition exp(x_1 f_1) o ... o exp(x_n f_n) applied to the
    identity, with f_j the left-invariant field of B_j. Every axis B_j is
    a single-plane generator, B_j^3 = lam_j B_j, so each factor is a
    closed-form plane_exp. forward, forward_inv, frame and
    covector_from_chart take one (n,) point or a (P, n) stack of them.
    """

    frame_algebra: list[np.ndarray]
    R: int
    p_hat: np.ndarray

    def __post_init__(self):
        self.n = len(self.frame_algebra)
        # pseudo-inverse of the flattened frame at the origin: chart
        # components of an algebra element, used by the falsifier
        self.b_pinv = np.linalg.pinv(
            np.array([b.ravel() for b in self.frame_algebra]).T)
        self._axes = np.array(self.frame_algebra)
        self._axes_sq = self._axes @ self._axes
        self._axes_lam = 0.5 * np.trace(self._axes_sq, axis1=-2, axis2=-1)
        if not np.allclose(self._axes_sq @ self._axes,
                           self._axes_lam[:, None, None] * self._axes,
                           rtol=0.0, atol=1e-12):
            raise ValueError("every chart axis must be a single-plane "
                             "generator, B^3 = lam B")

    def _factors(self, x: np.ndarray) -> np.ndarray:
        """The axis factors exp(x_j B_j), (..., n, d, d) for x (..., n);
        the factors of -x are their inverses."""
        x = np.asarray(x, dtype=float)
        return plane_exp(x[..., None, None] * self._axes,
                         self._axes_lam * x * x,
                         (x * x)[..., None, None] * self._axes_sq)

    def forward(self, x: np.ndarray) -> np.ndarray:
        factors = self._factors(x)
        g = factors[..., -1, :, :]
        for j in range(self.n - 2, -1, -1):
            g = g @ factors[..., j, :, :]
        return g

    def forward_inv(self, x: np.ndarray) -> np.ndarray:
        """forward(x)^-1 = exp(-x_1 B_1) @ ... @ exp(-x_n B_n), exactly."""
        factors = self._factors(-np.asarray(x, dtype=float))
        g = factors[..., 0, :, :]
        for j in range(1, self.n):
            g = g @ factors[..., j, :, :]
        return g

    def frame(self, x: np.ndarray) -> np.ndarray:
        """Moving frame v_j(x) with dUpsilon/dx_j = Upsilon(x) v_j(x), as an
        (..., n, d, d) array for x (..., n).

        v_j = C_j^{-1} B_j C_j where C_j collects the exponential factors
        with indices below j.
        """
        x = np.asarray(x, dtype=float)
        factors, inv_factors = self._factors(x), self._factors(-x)
        out = np.empty(x.shape + self._axes.shape[-2:])
        c = c_inv = np.eye(self._axes.shape[-1])
        for j in range(self.n):
            out[..., j, :, :] = c_inv @ self._axes[j] @ c
            c = factors[..., j, :, :] @ c
            c_inv = c_inv @ inv_factors[..., j, :, :]
        return out

    def solve_in_frame(self, x: np.ndarray, mat: np.ndarray) -> np.ndarray:
        """Coefficients c with sum_j c_j v_j(x) = mat (least squares, exact
        for mat in the Lie algebra); a (k, d, d) stack of mats gives one
        (k, n) row per member from one solve."""
        v = self.frame(x)
        stack = v.reshape(self.n, -1).T
        c, *_ = np.linalg.lstsq(stack, mat.reshape(-1, stack.shape[0]).T,
                                rcond=None)
        return c.T.reshape(mat.shape[:-2] + (self.n,))

    def inverse(self, q: np.ndarray, x0: np.ndarray | None = None,
                radius: float = np.inf) -> np.ndarray:
        """Damped Newton solve of forward(x) = q.

        The residual log(forward(x)^-1 q) stops at INVERSE_TOL
        max(1, max|q|)^2: the conditioning of q on SO(1, N), and 1 on the
        sphere and on Euclidean arcs of length up to 1. Iterates outside
        the ball of the given radius, the start included, report
        out-of-chart.
        """
        x = np.zeros(self.n) if x0 is None else np.asarray(x0, dtype=float).copy()
        tol = INVERSE_TOL * max(1.0, float(np.max(np.abs(q)))) ** 2

        def inside(xv):
            if np.linalg.norm(xv) > radius:
                raise OutOfChartError("iterate left the chart validity radius")
            return xv

        def residual(xv):
            return np.real(logm(self.forward_inv(xv) @ q))

        def direction(xv, e):
            return self.solve_in_frame(inside(xv), e)

        x, *_ = damped_newton(
            residual, direction, x, tol, INVERSE_MAX_ITER, 30,
            lambda msg: OutOfChartError(f"{msg} during chart inversion"))
        return inside(x)

    def covector_from_chart(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Matrix covector with <p, v_j(x)> = y_j, minimal Frobenius norm;
        (P, n) stacks of x and y give a (P, d, d) stack."""
        v = self.frame(x)
        stack = v.reshape(v.shape[:-2] + (-1,))
        p = np.linalg.pinv(stack) @ np.asarray(y, dtype=float)[..., None]
        return p.reshape(v.shape[:-3] + v.shape[-2:])


def dubins_adapted_chart(system: MatrixGroupSystem) -> GroupChart:
    """Adapted chart for a Dubins-family system.

    Frame order: A_1..A_m, [A_i,A_j] (i < j), [A_0,A_i], A_0. The first
    R = m + m(m-1)/2 fields span the controlled algebra (the hypotheses
    closure_so_N and frame_basis_rank of the conditions stage) and the
    reference trajectory is the x_n coordinate axis.
    """
    p_hat = np.zeros(system.n)
    p_hat[-1] = 1.0
    return GroupChart(system.full_algebra_basis(), system.R, p_hat)

