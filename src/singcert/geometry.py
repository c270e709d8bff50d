"""Singular-surface geometry and the dominating-Hamiltonian certificate.

All Hamiltonians of left-invariant fields depend only on the left-trivialized
covector, so the surfaces, the projection and the gap function are computed
in covector space with exact group formulas; base points are carried along
for flows and chart work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.stats import qmc

from .algebra import commutator, pairing
from .chart import GroupChart
from .extremal import ExtremalPoint, ExtremalTrajectory, legendre_form
from .numerics import damped_newton, rk4_flow
from .systems import MatrixGroupSystem, ProjectionError


@dataclass(frozen=True)
class ProjectionResult:
    theta: np.ndarray
    point: ExtremalPoint
    newton_iterations: int
    residual: float


@dataclass
class CertificateReport:
    verdict: str
    rho: float
    min_singular_value: float
    singular_values: np.ndarray
    grid: np.ndarray
    lambda_radius: float
    n_samples: int
    max_sigma_residual: float
    margin: float

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "rho": float(self.rho),
            "min_singular_value": float(self.min_singular_value),
            "margin": float(self.margin),
            "lambda_radius": float(self.lambda_radius),
            "n_samples": int(self.n_samples),
            "max_sigma_residual": float(self.max_sigma_residual),
        }


def _dexp(t_mat: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Directional derivative of expm at t_mat, by the block-matrix trick."""
    d = t_mat.shape[0]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = t_mat
    block[d:, d:] = t_mat
    block[:d, d:] = direction
    return expm(block)[:d, d:]


class GroupGeometry:
    """Geometry operations for a matrix-group system."""

    def __init__(self, system: MatrixGroupSystem):
        self.system = system
        self.a0 = system.drift
        self.ai = list(system.controlled)
        self.m = system.m
        self.a0i = [commutator(self.a0, a) for a in self.ai]
        self.closure = list(system.lie_closure_basis)

    # -- surface residuals -------------------------------------------------

    def sigma_residual(self, p: np.ndarray) -> float:
        return max(abs(pairing(p, b)) for b in self.closure)

    def s_residual(self, p: np.ndarray) -> float:
        return max(abs(pairing(p, b)) for b in self.a0i)

    # -- psi and phi -------------------------------------------------------

    def psi(self, point: ExtremalPoint, t_vec: np.ndarray) -> ExtremalPoint:
        """Time-1 flow of sum t_i F_i: exact exponential transport."""
        t_vec = np.asarray(t_vec, dtype=float)
        t_mat = sum(t_vec[i] * self.ai[i] for i in range(self.m))
        e = expm(t_mat)
        e_inv = expm(-t_mat)
        q = point.q @ e
        p = e.T @ point.p @ e_inv.T
        return ExtremalPoint(q=q, p=p, t=point.t)

    def _phi_system(self, p: np.ndarray, theta: np.ndarray):
        """Residual Phi_i(theta) = <p, Ad_e A_0i>, its exact Jacobian, and
        d_ad(B, j), the derivative of Ad_e B along theta_j."""
        t_mat = sum(theta[i] * self.ai[i] for i in range(self.m))
        e = expm(t_mat)
        e_inv = expm(-t_mat)
        ad_a0i = [e @ a @ e_inv for a in self.a0i]
        phi = np.array([pairing(p, v) for v in ad_a0i])
        des = [_dexp(t_mat, a) for a in self.ai]
        de_invs = [-e_inv @ de @ e_inv for de in des]

        def d_ad(b, j):
            return des[j] @ b @ e_inv + e @ b @ de_invs[j]

        jac = np.array([[pairing(p, d_ad(a, j)) for j in range(self.m)]
                        for a in self.a0i])
        return phi, jac, e, e_inv, ad_a0i, d_ad

    def solve_theta(self, p: np.ndarray, theta0: np.ndarray | None = None,
                    tol: float = 1e-12, max_iter: int = 50):
        """Damped Newton for the multipliers theta with F_0i(psi) = 0.

        Returns (theta, residual, Newton steps taken, _phi_system at theta).
        """
        theta = (np.zeros(self.m) if theta0 is None
                 else np.asarray(theta0, dtype=float).copy())

        def residual(th):
            phi_sys = self._phi_system(p, th)
            return phi_sys[0], phi_sys

        def direction(_th, phi, phi_sys):
            try:
                return np.linalg.solve(phi_sys[1], -phi)
            except np.linalg.LinAlgError as exc:
                raise ProjectionError("projection Jacobian breakdown") from exc

        return damped_newton(residual, direction, theta, tol, max_iter, 25,
                             lambda msg: ProjectionError(f"projection {msg}"))

    def phi_projection(self, point: ExtremalPoint,
                       theta0: np.ndarray | None = None) -> ProjectionResult:
        lf = legendre_form(self.system, point).entries
        if np.max(np.linalg.eigvalsh(0.5 * (lf + lf.T))) >= 0.0:
            raise ProjectionError(
                "Legendre form not negative-definite at this point")
        theta, res, iters, _ = self.solve_theta(point.p, theta0)
        return ProjectionResult(theta, self.psi(point, theta), iters, res)

    # -- dominating Hamiltonian and gap ------------------------------------

    def h0(self, point: ExtremalPoint,
           theta0: np.ndarray | None = None) -> float:
        proj = self.phi_projection(point, theta0)
        return pairing(proj.point.p, self.a0)

    def chi(self, point: ExtremalPoint,
            theta0: np.ndarray | None = None) -> float:
        return self.h0(point, theta0) - pairing(point.p, self.a0)

    def grad_h0(self, p: np.ndarray, theta0: np.ndarray | None = None):
        """Exact covector-gradient of H_0, as an algebra element.

        delta H_0 = <delta p, M> with M = Ad_e A_0 - sum_i d_i Ad_e A_0i,
        the multiplier sensitivities coming from the implicit equation
        Phi(p, theta(p)) = 0.
        """
        theta, _, _, phi_sys = self.solve_theta(p, theta0)
        _, jac, e, e_inv, ad_a0i, d_ad = phi_sys
        v0 = e @ self.a0 @ e_inv
        # c_j = <p, d/dtheta_j Ad_e A_0>
        c = np.array([pairing(p, d_ad(self.a0, j)) for j in range(self.m)])
        dcoef = np.linalg.solve(jac.T, c)
        grad = v0 - sum(dcoef[i] * ad_a0i[i] for i in range(self.m))
        return grad, theta

    # -- super-Hamiltonian flow --------------------------------------------

    def super_hamiltonian_flow(self, point: ExtremalPoint, grid,
                               sigma_tol: float = 1e-6,
                               monitor_sigma: bool = False):
        """Integrate the canonical flow of H_0 from the point.

        Returns the list of flowed points on the grid. With monitor_sigma,
        aborts if a Sigma-initialized sample drifts off Sigma.
        """
        grid = np.asarray(grid, dtype=float)
        theta = np.zeros(self.m)

        def rhs(t, y):
            # each multiplier solve warm-starts from the previous one
            nonlocal theta
            g, p = y
            mh, theta = self.grad_h0(p, theta)
            return np.array([g @ mh, hamiltonian_direction(p, mh)])

        def sigma_monitor(t, y):
            if self.sigma_residual(y[1]) > sigma_tol:
                raise ProjectionError(
                    f"Sigma drift {self.sigma_residual(y[1]):.3e} above "
                    f"tolerance at t = {t:.6f}")
            return y

        states = rk4_flow(rhs, grid, np.array([point.q, point.p]),
                          sigma_monitor if monitor_sigma else None)
        return [ExtremalPoint(q=y[0], p=y[1], t=float(t))
                for t, y in zip(grid, states)]

    # -- chi Hessian cross-check -------------------------------------------

    def chi_hessian_check(self, point: ExtremalPoint, directions,
                          h: float = 1e-3) -> dict:
        """Second differences of chi against the closed-form Hessian.

        Directions are covector-space matrices. Reports per-direction
        values, the max relative discrepancy, and a Richardson order
        estimate from steps h and h/2.
        """
        if self.s_residual(point.p) > 1e-9 or self.sigma_residual(point.p) > 1e-9:
            raise ProjectionError("Hessian check requires a point on S")
        lf = legendre_form(self.system, point).entries
        lf_inv = np.linalg.inv(lf)

        def chi_at(p):
            return self.chi(ExtremalPoint(q=point.q, p=p, t=point.t))

        rows = []
        for dp in directions:
            closed = -sum(
                lf_inv[r, s] * pairing(dp, self.a0i[r]) * pairing(dp, self.a0i[s])
                for r in range(self.m) for s in range(self.m))

            def second_diff(step):
                return (chi_at(point.p + step * dp) - 2.0 * chi_at(point.p)
                        + chi_at(point.p - step * dp)) / step ** 2

            d2_h = second_diff(h)
            d2_h2 = second_diff(0.5 * h)
            scale = max(abs(closed), 1.0)
            err_h = abs(d2_h - closed) / scale
            err_h2 = abs(d2_h2 - closed) / scale
            if err_h2 > 0 and err_h > 0:
                order = float(np.log2(err_h / err_h2))
            else:
                order = np.inf
            rows.append({"closed_form": closed, "fd": d2_h2,
                         "rel_error": err_h2, "order": order})
        max_rel = max(r["rel_error"] for r in rows)
        min_order = min(r["order"] for r in rows)
        return {"directions": rows, "max_rel_error": max_rel,
                "min_order": min_order}


def hamiltonian_direction(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Covector component of the Hamiltonian field of F_A at p."""
    return a.T @ p - p @ a.T


def certificate_check(system: MatrixGroupSystem, extremal: ExtremalTrajectory,
                      chart: GroupChart, rho: float,
                      lambda_radius: float = 0.1, grid=None,
                      n_samples: int = 128, seed: int = 0,
                      fd_step: float = 1e-5,
                      margin: float = 1e-3) -> CertificateReport:
    """Field-of-extremals certificate via the dominating Hamiltonian flow.

    Builds the Lagrangian graph of d(alpha_rho) in the adapted chart,
    verifies it sits inside Sigma, transports a tangent basis by finite
    differences of the nonlinear flow, and tracks the smallest singular
    value of the base projection.
    """
    geom = GroupGeometry(system)
    n = chart.n
    r_dim = chart.R
    if grid is None:
        grid = extremal.grid
    grid = np.asarray(grid, dtype=float)

    def lambda_lift(x):
        """Covector matrix of the graph point of d(alpha_rho) over x."""
        y = np.zeros(n)
        y[r_dim:] = chart.p_hat[r_dim:] + rho * x[r_dim:]
        return chart.covector_from_chart(x, y)

    # spot-verify Lambda inside Sigma on a Sobol sample
    sampler = qmc.Sobol(d=n, scramble=True, seed=seed)
    raw = sampler.random(n_samples)
    max_sigma = 0.0
    for row in raw:
        x = lambda_radius * (2.0 * row - 1.0)
        max_sigma = max(max_sigma, geom.sigma_residual(lambda_lift(x)))

    # transported tangent basis of the Lagrangian graph, by central FD
    flows = []
    for k in range(n):
        for sign in (1.0, -1.0):
            x = np.zeros(n)
            x[k] = sign * fd_step
            pt = ExtremalPoint(q=chart.forward(x), p=lambda_lift(x), t=0.0)
            flows.append(geom.super_hamiltonian_flow(pt, grid))

    svals = np.zeros(grid.size)
    warm = [np.zeros(n) for _ in range(2 * n)]
    for idx in range(grid.size):
        base = np.zeros((n, n))
        for k in range(n):
            xp = chart.inverse(flows[2 * k][idx].q, x0=warm[2 * k])
            xm = chart.inverse(flows[2 * k + 1][idx].q, x0=warm[2 * k + 1])
            warm[2 * k], warm[2 * k + 1] = xp, xm
            base[:, k] = (xp - xm) / (2.0 * fd_step)
        svals[idx] = np.linalg.svd(base, compute_uv=False)[-1]
    min_sv = float(np.min(svals))
    verdict = "certified" if (min_sv >= margin and max_sigma <= 1e-10) else \
        "not certified"
    return CertificateReport(
        verdict=verdict, rho=float(rho), min_singular_value=min_sv,
        singular_values=svals, grid=grid, lambda_radius=float(lambda_radius),
        n_samples=int(n_samples), max_sigma_residual=float(max_sigma),
        margin=float(margin))


def flow_samples_to_csv(geom: GroupGeometry, samples: list[ExtremalPoint],
                        path) -> None:
    """Emit t, flattened covector, and surface residuals per flowed sample."""
    d = samples[0].p.shape[0]
    header = ["t"] + [f"p_{i}{j}" for i in range(d) for j in range(d)]
    header += ["sigma_residual", "s_residual"]
    lines = [",".join(header)]
    for pt in samples:
        row = [f"{pt.t:.17g}"]
        row += [f"{v:.17g}" for v in pt.p.ravel()]
        row.append(f"{geom.sigma_residual(pt.p):.17g}")
        row.append(f"{geom.s_residual(pt.p):.17g}")
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
