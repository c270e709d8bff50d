"""Singular-surface geometry and the dominating-Hamiltonian certificate.

All Hamiltonians of left-invariant fields depend only on the left-trivialized
covector, so the surfaces, the projection onto S and the gap function chi
are functions of covectors. On the Dubins family the projection onto S has
a closed form (see GroupGeometry): H_0 = |c(p)|, its gradient and the
multipliers come from one vector c(p) read off the covector, and the
multiplier exponential is a single-plane rotation. Base points enter only
the super-Hamiltonian flow, which carries (S, d, d) stacks of them beside
their covectors: on Sigma every extremal of H_0 is a geodesic
q0 exp(t a0), so the certificate takes all its seeds in closed form and
reads their offsets from the reference arc, the chart's x_n axis, through
the origin frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import INVERSE_TOL, GroupChart
from .extremal import (ExtremalTrajectory, coadjoint_transport,
                       hogc_residual, legendre_form, require_finite,
                       s_residual)
from .numerics import plane_exp, series_log, write_csv
from .systems import MatrixGroupSystem, ProjectionError

# half-width of the chart box around x = 0 on which the certificate
# spot-checks that the Lagrangian graph lies inside Sigma
LAMBDA_RADIUS = 0.1

# smallest singular value of the base projection the certificate accepts
CERTIFICATE_MARGIN = 1e-3

# largest hogc_residual of a sampled graph point the certificate accepts
SIGMA_TOL = 1e-10


@dataclass
class CertificateReport:
    verdict: str
    rho: float
    min_singular_value: float
    singular_values: np.ndarray
    n_samples: int
    max_sigma_residual: float
    # the (T, d, d) covectors of the flow from the start of the arc, the
    # x = 0 member, on the certificate grid: written to flow.csv, not
    # emitted
    covectors: np.ndarray
    # which check failed and by how much, or None
    reason: str | None = None

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "rho": float(self.rho),
            "min_singular_value": float(self.min_singular_value),
            "margin": CERTIFICATE_MARGIN,
            "lambda_radius": LAMBDA_RADIUS,
            "n_samples": int(self.n_samples),
            "max_sigma_residual": float(self.max_sigma_residual),
        }


class GroupGeometry:
    """Geometry operations for a Dubins-family system, in closed form.

    Index the ambient matrices 0..N. Each controlled generator A_i rotates
    the plane of e_1 and e_{i+1}, so e = exp(sum theta_i A_i) is a rotation
    of the indices 1..N that fixes e_0, and

        Ad_e A_0 = w e_0^T - eps e_0 w^T,   w = e e_1, |w| = 1.

    Hence <p, Ad_e A_0> = w . c with c = c(p) = p[1:, 0] - eps p[0, 1:],
    and c_1 = F_0(p). As theta ranges, w covers the unit sphere of R^N. The
    covector e^T p e^-T is on S when it is critical for F_0 along every
    F_i flow, that is when w = +-c/|c|, and the dominating Hamiltonian
    takes the maximum:

    - H_0 = |c| and chi = H_0 - F_0 = |c| - c_1 >= 0;
    - the covector gradient of H_0 is Ad_e A_0 at w = c/|c|, exactly,
      wherever c != 0 (dH_0 = (c/|c|) . dc);
    - theta = atan2(|c_perp|, c_1) c_perp/|c_perp|, c_perp = (c_2..c_N),
      with theta = 0 where c_perp = 0 and c_1 > 0;
    - Theta = sum theta_i A_i is a single-plane generator, Theta^3 =
      -|theta|^2 Theta, so e = `plane_exp`(Theta), the Rodrigues formula.

    Every method takes one covector (d, d) or an (S, d, d) stack; the
    super-Hamiltonian flow takes (S, d, d) stacks.
    """

    def __init__(self, system: MatrixGroupSystem):
        self.system = system
        self.ai = np.array(system.controlled)
        self.m = system.m

    # -- multipliers and the projection onto S ----------------------------

    def _c(self, p: np.ndarray):
        """c(p) = p[1:, 0] - eps p[0, 1:], (N,) or (S, N), and |c| with a
        trailing axis. Raises ProjectionError where |c| is zero or not
        finite: there the projection onto S is undefined."""
        with np.errstate(invalid="ignore", over="ignore"):
            c = p[..., 1:, 0] - self.system.epsilon * p[..., 0, 1:]
            norm = np.linalg.norm(c, axis=-1, keepdims=True)
        if not np.all((norm > 0.0) & np.isfinite(norm)):
            raise ProjectionError(
                "projection onto S undefined: c(p) is zero or not finite")
        return c, norm

    def _require_legendre(self, p: np.ndarray) -> None:
        lf = legendre_form(self.system, p)
        if np.max(np.linalg.eigvalsh(lf + np.swapaxes(lf, -1, -2))) >= 0.0:
            raise ProjectionError(
                "Legendre form not negative-definite at this point")

    def solve_theta(self, p: np.ndarray):
        """Multipliers theta that move p onto S at the maximum of F_0.

        Returns (theta, e, 0, w) for one covector (d, d) or an (S, d, d)
        stack: theta (m,) or (S, m), e = exp(sum theta_i A_i), the number
        of Newton steps taken, always 0 (the benchmark tracer reads it),
        and w = c/|c|. Raises ProjectionError where |c| is zero or not
        finite.
        """
        p = np.asarray(p, dtype=float)
        c, norm = self._c(p)
        perp = np.linalg.norm(c[..., 1:], axis=-1, keepdims=True)
        angle = np.arctan2(perp, c[..., :1])
        # where c_perp = 0 any axis serves; only c_1 < 0 there turns by pi
        axis = np.where(perp > 0.0, c[..., 1:] / np.where(perp > 0.0, perp,
                                                           1.0),
                        np.eye(self.m)[0])
        theta = angle * axis
        e = plane_exp(np.tensordot(theta, self.ai, axes=1))
        return theta, e, 0, c / norm

    def project(self, p: np.ndarray):
        """Move p along the flows of the F_i onto S.

        Returns (theta, e^T p e^-T, max s_residual of it), e = exp(sum
        theta_i A_i), for one covector or an (S, d, d) stack. Raises
        ProjectionError where a Legendre form is not negative-definite or
        where |c| is zero or not finite.
        """
        p = np.asarray(p, dtype=float)
        self._require_legendre(p)
        theta, e, _, _ = self.solve_theta(p)
        # e is orthogonal, so e^-T = e
        moved = np.swapaxes(e, -1, -2) @ p @ e
        return theta, moved, float(np.max(s_residual(self.system, moved)))

    # -- dominating Hamiltonian and gap ------------------------------------

    def chi(self, p: np.ndarray):
        """Gap chi = H_0 - F_0 = |c| - c_1 at p (an array for a stack),
        formed as |c_perp|^2 / (|c| + c_1): the Legendre condition, checked
        as in project, gives c_1 > 0, so nothing cancels."""
        p = np.asarray(p, dtype=float)
        self._require_legendre(p)
        c, norm = self._c(p)
        return np.sum(c[..., 1:] ** 2, axis=-1) / (norm[..., 0] + c[..., 0])

    def grad_h0(self, p: np.ndarray) -> np.ndarray:
        """Covector gradient Ad_e A_0 = w e_0^T - eps e_0 w^T of H_0 = |c|
        at p, w = c/|c|, as an algebra element (a stack of them for a stack
        of p)."""
        w = self.solve_theta(p)[3]
        grad = np.zeros(w.shape[:-1] + (self.system.d,) * 2)
        grad[..., 1:, 0] = w
        grad[..., 0, 1:] = -self.system.epsilon * w
        return grad

    # -- super-Hamiltonian flow --------------------------------------------

    def super_hamiltonian_flow(self, q0: np.ndarray, p0: np.ndarray, grid):
        """The canonical flow of H_0 from (S, d, d) stacks of base points q0
        and covectors p0 on Sigma, in closed form: the (T, S, d, d) arrays
        q and p on the grid.

        With c_i = <p, P_i>, P_i = e_i e_0^T - eps e_0 e_i^T, the flow of
        a = sum_j w_j P_j has dc_i/dt = sum_j w_j <p, [P_j, P_i]>. Each
        [P_j, P_i] rotates the indices 1..N and so lies in the controlled
        Lie closure, whose pairings vanish on Sigma and stay zero:
        d<p, B>/dt = <p, [a, B]> = -(B w) . c = 0 for such a rotation B. So on Sigma c and a = grad_h0(p0) are
        constant, and q(t) = q0 exp(t a), with p(t) the coadjoint transport
        of p0 by the single-plane `plane_exp`(t a). Off Sigma this is not
        the flow of H_0; the certificate checks its seeds on Sigma.
        """
        ta = np.asarray(grid, dtype=float)[:, None, None, None] \
            * self.grad_h0(p0)
        step = plane_exp(ta)
        return q0 @ step, coadjoint_transport(p0, step, plane_exp(-ta))


def certificate_check(system: MatrixGroupSystem, extremal: ExtremalTrajectory,
                      chart: GroupChart, rho: float, grid,
                      n_samples: int = 128, seed: int = 0,
                      fd_step: float = 1e-5) -> CertificateReport:
    """Field-of-extremals certificate via the dominating Hamiltonian flow.

    Builds the Lagrangian graph of d(alpha_rho) in the adapted chart and
    verifies it sits inside Sigma on a seeded uniform sample (a pointwise
    identity needs no low discrepancy) and at the seeds, the graph points
    over x = 0 and x = +-fd_step e_k. The seeds flow together as one
    stacked closed-form super-Hamiltonian flow, exact on Sigma. The x = 0
    member is the reference arc, at x_c = t e_n on the chart's x_n axis,
    where the moving frame is the origin frame: one stacked series log of
    forward_inv(x_c) q gives member 0's offset from the axis and, through
    one product with chart.b_pinv, the other members' offsets on the whole
    grid, whose central differences are the base projection.

    Member 0 is on the axis where its offset passes the stop test of
    chart.inverse, so Newton would take no step. One chart.inverse runs,
    at the first grid time that fails the test (its step is the reason's
    offset), or else at t = H as a check of the series log against
    scipy's logm. The logs come first, so an arc too long for the series
    ends in its error before the chart inversion. The reason names the
    first failed check: member 0 off the axis, Sigma, the margin.
    """
    require_finite(extremal)
    geom = GroupGeometry(system)
    n = chart.n
    r_dim = chart.R
    grid = np.asarray(grid, dtype=float)

    def lambda_lift(x):
        """Covector matrices of the graph points of d(alpha_rho) over the
        (P, n) chart points x."""
        y = np.zeros(x.shape)
        y[:, r_dim:] = chart.p_hat[r_dim:] + rho * x[:, r_dim:]
        return chart.covector_from_chart(x, y)

    rng = np.random.default_rng(seed)
    lifts = lambda_lift(LAMBDA_RADIUS * (2.0 * rng.random((n_samples, n))
                                         - 1.0))

    # seeds x = 0, +fd_step e_0, -fd_step e_0, +fd_step e_1, ...
    seeds = np.zeros((2 * n + 1, n))
    seeds[1::2] = fd_step * np.eye(n)
    seeds[2::2] = -fd_step * np.eye(n)
    seed_lifts = lambda_lift(seeds)
    # the closed-form flow needs its seeds on Sigma too
    max_sigma = float(np.max(hogc_residual(
        system, np.concatenate([lifts, seed_lifts]))))
    q, p = geom.super_hamiltonian_flow(chart.forward(seeds), seed_lifts, grid)

    x_c = np.zeros((grid.size, n))
    x_c[:, -1] = grid
    offsets = series_log(chart.forward_inv(x_c)[:, None] @ q)
    diffs = (offsets[:, 1::2] - offsets[:, 2::2]) / (2.0 * fd_step)
    bases = np.swapaxes(diffs.reshape(grid.size, n, -1) @ chart.b_pinv.T,
                        -1, -2)
    svals = np.linalg.svd(bases, compute_uv=False)[:, -1]
    min_sv = float(np.min(svals))
    tol = INVERSE_TOL * np.maximum(
        1.0, np.max(np.abs(q[:, 0]), axis=(-2, -1))) ** 2
    off_axis = np.flatnonzero(np.max(np.abs(offsets[:, 0]), axis=(-2, -1))
                              > tol)
    at = off_axis[0] if off_axis.size else grid.size - 1
    moved = float(np.max(np.abs(chart.inverse(q[at, 0], x0=x_c[at])
                                - x_c[at])))
    if moved > 0.0:
        reason = (f"member 0 left the chart's x_n axis: at t = {grid[at]:.6g} "
                  f"chart inversion moved it by {moved:.3e}")
    elif not max_sigma <= SIGMA_TOL:
        reason = (f"the Lagrangian graph left Sigma: max sigma residual "
                  f"{max_sigma:.3e} exceeds {SIGMA_TOL:g}")
    elif not min_sv >= CERTIFICATE_MARGIN:
        reason = (f"the base projection's smallest singular value "
                  f"{min_sv:.3e} at t = {grid[np.argmin(svals)]:.6g} is "
                  f"below the margin {CERTIFICATE_MARGIN:g}")
    else:
        reason = None
    return CertificateReport(
        verdict="certified" if reason is None else "not certified",
        rho=float(rho), min_singular_value=min_sv,
        singular_values=svals, n_samples=int(n_samples),
        max_sigma_residual=max_sigma,
        covectors=p[:, 0], reason=reason)


def flow_samples_to_csv(system: MatrixGroupSystem, grid, p: np.ndarray,
                        path) -> None:
    """Emit t, flattened covector, and surface residuals per grid time of
    one flowed sample's (T, d, d) covectors p."""
    d = p.shape[-1]
    header = ["t"] + [f"p_{i}{j}" for i in range(d) for j in range(d)]
    header += ["sigma_residual", "s_residual"]
    rows = np.concatenate([
        np.asarray(grid, dtype=float)[:, None], p.reshape(len(p), -1),
        hogc_residual(system, p)[:, None], s_residual(system, p)[:, None]],
        axis=1)
    write_csv(path, header, rows)
