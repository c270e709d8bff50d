"""Singular-surface geometry and the dominating-Hamiltonian certificate.

All Hamiltonians of left-invariant fields depend only on the left-trivialized
covector, so the surfaces, the projection onto S and the gap function chi
are functions of covectors, computed with exact group formulas from one
multiplier solve, whose Jacobian only Newton forms. Base points enter only
the super-Hamiltonian flow, which carries (S, d, d) stacks of them beside
their covectors: the certificate flows all its seeds as one stacked RK4
flow, projected back onto the group after every step, and inverts the
chart once per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .algebra import commutator
from .chart import GroupChart
from .extremal import (ExtremalTrajectory, hogc_residual, legendre_form,
                       s_residual)
from .numerics import damped_newton, rk4_flow, series_log
from .systems import MatrixGroupSystem, ProjectionError

# half-width of the chart box around x = 0 on which the certificate
# spot-checks that the Lagrangian graph lies inside Sigma
LAMBDA_RADIUS = 0.1


@dataclass
class CertificateReport:
    verdict: str
    rho: float
    min_singular_value: float
    singular_values: np.ndarray
    n_samples: int
    max_sigma_residual: float
    margin: float
    # the (T, d, d) covectors of the flow from the start of the arc, the
    # x = 0 member, on the certificate grid: written to flow.csv, not
    # emitted
    covectors: np.ndarray

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "rho": float(self.rho),
            "min_singular_value": float(self.min_singular_value),
            "margin": float(self.margin),
            "lambda_radius": LAMBDA_RADIUS,
            "n_samples": int(self.n_samples),
            "max_sigma_residual": float(self.max_sigma_residual),
        }


class GroupGeometry:
    """Geometry operations for a matrix-group system.

    The multiplier solve, the projection onto S, chi and the gradient of
    H_0 take one covector (d, d) or an (S, d, d) stack of them; the
    super-Hamiltonian flow takes (S, d, d) stacks.
    """

    def __init__(self, system: MatrixGroupSystem):
        self.system = system
        self.a0 = system.drift
        self.ai = np.array(system.controlled)
        self.m = system.m
        self.a0i = np.array([commutator(self.a0, a) for a in self.ai])

    # -- multipliers and the projection onto S ----------------------------

    def _phi_system(self, p: np.ndarray, theta: np.ndarray):
        """Multiplier residuals of an (S, d, d) covector stack at (S, m)
        theta: Phi_i = <p, Ad_e A_0i> (S, m), e = exp(sum theta_i A_i) and
        its inverse (S, d, d), and Ad_e A_0i (S, m, d, d)."""
        t_mat = np.einsum("sj,jab->sab", theta, self.ai)
        both = expm(np.concatenate([t_mat, -t_mat]))
        e, e_inv = both[:len(p)], both[len(p):]
        ad_a0i = e[:, None] @ self.a0i @ e_inv[:, None]
        return np.einsum("sab,siab->si", p, ad_a0i), e, e_inv, ad_a0i

    def _phi_jacobian(self, p: np.ndarray, theta: np.ndarray,
                      e_inv: np.ndarray, ad_a0i: np.ndarray) -> np.ndarray:
        """Exact (m, m) Jacobian of Phi in theta at one covector p, given
        e^-1 and Ad_e A_0i there: d/dtheta_j Ad_e A_0i = [X_j, Ad_e A_0i],
        X_j = (de/dtheta_j) e^-1 from one block-matrix exponential."""
        d = p.shape[-1]
        block = np.zeros((self.m, 2 * d, 2 * d))
        block[:, :d, :d] = block[:, d:, d:] = np.tensordot(theta, self.ai,
                                                           axes=1)
        block[:, :d, d:] = self.ai
        x = expm(block)[:, :d, d:] @ e_inv
        x, ad = x[None], ad_a0i[:, None]
        return np.einsum("ab,ijab->ij", p, x @ ad - ad @ x)

    def solve_theta(self, p: np.ndarray, theta0: np.ndarray | None = None,
                    tol: float = 1e-12, max_iter: int = 50):
        """Damped Newton for the multipliers theta with
        <e^T p e^-T, A_0i> = 0, e = exp(sum theta_i A_i).

        p is one covector (d, d) or an (S, d, d) stack, theta0 the matching
        (m,) or (S, m) start. The whole stack is evaluated at once; each
        member the start leaves above tol gets its own Newton solve, the
        only place the Jacobian is formed, so a member's theta does not
        depend on the rest of the stack. Returns (theta, max residual,
        Newton steps taken over all members, aux), aux the (Phi, e, e^-1,
        Ad_e A_0i) of _phi_system for the stack at theta.
        """
        p = np.asarray(p, dtype=float)
        stack = p.reshape(-1, *p.shape[-2:])
        theta = (np.zeros((len(stack), self.m)) if theta0 is None
                 else np.array(theta0, dtype=float).reshape(len(stack),
                                                             self.m))
        aux = self._phi_system(stack, theta)
        res = np.max(np.abs(aux[0]), axis=1)
        steps = 0
        for k in np.flatnonzero(~(res <= tol)):
            def residual(th, k=k):
                aux_k = self._phi_system(stack[k:k + 1], th[None])
                return aux_k[0][0], aux_k

            def direction(th, phi, aux_k, k=k):
                jac = self._phi_jacobian(stack[k], th, aux_k[2][0],
                                         aux_k[3][0])
                try:
                    return np.linalg.solve(jac, -phi)
                except np.linalg.LinAlgError as exc:
                    raise ProjectionError(
                        "projection Jacobian breakdown") from exc

            theta[k], res[k], iters, aux_k = damped_newton(
                residual, direction, theta[k], tol, max_iter, 25,
                lambda msg: ProjectionError(f"projection {msg}"))
            steps += iters
            for whole, part in zip(aux, aux_k):
                whole[k] = part[0]
        return (theta.reshape(p.shape[:-2] + (self.m,)), float(np.max(res)),
                steps, aux)

    def project(self, p: np.ndarray, theta0: np.ndarray | None = None):
        """Move p along the flows of the F_i onto S.

        Returns (theta, e^T p e^-T, max residual) with e = exp(sum theta_i
        A_i), for one covector or an (S, d, d) stack. Raises
        ProjectionError where a Legendre form is not negative-definite.
        """
        p = np.asarray(p, dtype=float)
        lf = legendre_form(self.system, p)
        if np.max(np.linalg.eigvalsh(lf + np.swapaxes(lf, -1, -2))) >= 0.0:
            raise ProjectionError(
                "Legendre form not negative-definite at this point")
        theta, res, _, (_, e, e_inv, _) = self.solve_theta(p, theta0)
        moved = np.swapaxes(e, -1, -2) @ p.reshape(e.shape) \
            @ np.swapaxes(e_inv, -1, -2)
        return theta, moved.reshape(p.shape), res

    # -- dominating Hamiltonian and gap ------------------------------------

    def chi(self, p: np.ndarray, theta0: np.ndarray | None = None):
        """Gap chi = H_0 - F_0 at p, with H_0 = F_0 at the projection of p
        onto S (an array for a stack)."""
        moved = self.project(p, theta0)[1]
        return np.tensordot(moved, self.a0, axes=2) \
            - np.tensordot(p, self.a0, axes=2)

    def grad_h0(self, p: np.ndarray, theta0: np.ndarray | None = None):
        """Covector-gradient Ad_e A_0 of H_0 at p on Sigma, as an algebra
        element (a stack of them for a stack of p), and theta.

        It holds on Sigma only. Through theta(p), H_0 also varies by
        <p, d/dtheta_j Ad_e A_0> = <e^T p e^-T, [Y_j, A_0]>, Y_j in Lie(f)
        as Ad_e preserves Lie(f). The regularity of S puts that bracket in
        Lie(f) + span{A_0i}, which the projected covector annihilates: it
        lies on S and, like p, on Sigma.
        """
        theta, _, _, (_, e, e_inv, _) = self.solve_theta(p, theta0)
        return (e @ self.a0 @ e_inv).reshape(np.shape(p)), theta

    # -- super-Hamiltonian flow --------------------------------------------

    def super_hamiltonian_flow(self, q0: np.ndarray, p0: np.ndarray, grid):
        """Integrate the canonical flow of H_0 from (S, d, d) stacks of base
        points q0 and covectors p0 as one stacked (S, 2, d, d) flow.

        After each step g is projected back onto the group. Returns the
        (T, S, d, d) arrays q and p on the grid.
        """
        y0 = np.stack([q0, p0], axis=1)
        theta = np.zeros((len(y0), self.m))

        def rhs(t, y):
            # each multiplier solve warm-starts from the previous one
            nonlocal theta
            g, p = y[:, 0], y[:, 1]
            mh, theta = self.grad_h0(p, theta)
            return np.stack([g @ mh, hamiltonian_direction(p, mh)], axis=1)

        def after_step(t, y):
            y[:, 0] = self.system.project_to_group(y[:, 0])
            return y

        states = np.array(rk4_flow(rhs, np.asarray(grid, dtype=float), y0,
                                   after_step))
        return states[:, :, 0], states[:, :, 1]


def hamiltonian_direction(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Covector component of the Hamiltonian field of F_A at p (stacks
    too)."""
    a_t = np.swapaxes(a, -1, -2)
    return a_t @ p - p @ a_t


def certificate_check(system: MatrixGroupSystem, extremal: ExtremalTrajectory,
                      chart: GroupChart, rho: float, grid=None,
                      n_samples: int = 128, seed: int = 0,
                      fd_step: float = 1e-5,
                      margin: float = 1e-3) -> CertificateReport:
    """Field-of-extremals certificate via the dominating Hamiltonian flow.

    Builds the Lagrangian graph of d(alpha_rho) in the adapted chart and
    verifies it sits inside Sigma on a Sobol sample. The graph points over
    x = 0 and x = +-fd_step e_k flow together as one stacked
    super-Hamiltonian flow. At each grid point one warm-started chart
    inversion locates the x = 0 member at x_c, and the exact series log
    of forward(x_c)^-1 q+- gives every other member's offset in the
    moving frame at x_c. The central differences of those offsets are the
    columns of the base projection: the chart's quadratic term cancels in
    them, and no chart-inversion noise is divided by fd_step. Tracks the
    smallest singular value of the base projection.
    """
    geom = GroupGeometry(system)
    n = chart.n
    r_dim = chart.R
    grid = np.asarray(extremal.grid if grid is None else grid, dtype=float)

    def lambda_lift(x):
        """Covector matrix of the graph point of d(alpha_rho) over x."""
        y = np.zeros(n)
        y[r_dim:] = chart.p_hat[r_dim:] + rho * x[r_dim:]
        return chart.covector_from_chart(x, y)

    # only the certificate needs scipy.stats, which is slow to import
    from scipy.stats import qmc

    # spot-verify Lambda inside Sigma on a Sobol sample
    sampler = qmc.Sobol(d=n, scramble=True, seed=seed)
    lifts = np.array([lambda_lift(LAMBDA_RADIUS * (2.0 * row - 1.0))
                      for row in sampler.random(n_samples)])
    max_sigma = float(np.max(hogc_residual(system, lifts)))

    # seeds x = 0, +fd_step e_0, -fd_step e_0, +fd_step e_1, ...
    seeds = np.zeros((2 * n + 1, n))
    seeds[1::2] = fd_step * np.eye(n)
    seeds[2::2] = -fd_step * np.eye(n)
    q, p = geom.super_hamiltonian_flow(
        np.array([chart.forward(x) for x in seeds]),
        np.array([lambda_lift(x) for x in seeds]), grid)

    bases = np.zeros((grid.size, n, n))
    x_c = np.zeros(n)
    for idx, q_t in enumerate(q):
        x_c = chart.inverse(q_t[0], x0=x_c)
        offsets = series_log(np.linalg.solve(chart.forward(x_c), q_t[1:]))
        bases[idx] = chart.solve_in_frame(
            x_c, (offsets[0::2] - offsets[1::2]) / (2.0 * fd_step)).T
    svals = np.linalg.svd(bases, compute_uv=False)[:, -1]
    min_sv = float(np.min(svals))
    verdict = "certified" if (min_sv >= margin and max_sigma <= 1e-10) else \
        "not certified"
    return CertificateReport(
        verdict=verdict, rho=float(rho), min_singular_value=min_sv,
        singular_values=svals, n_samples=int(n_samples),
        max_sigma_residual=max_sigma, margin=float(margin),
        covectors=p[:, 0])


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
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
