"""Goh-transformed second variation: assembly and coercivity tests.

Two independent deciders are provided: a Galerkin eigenvalue bound on the
constrained quadratic form, and the Hamiltonian conjugate-point test for
the rho-extended free-initial-condition problem. A finite-difference
equivalence check ties the linear-quadratic Hamiltonian to the second
derivative of the gap function along the reference flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .algebra import commutator, pairing
from .chart import GroupChart
from .extremal import (ExtremalTrajectory, coadjoint_transport,
                       legendre_form, reference_flow, require_finite)
from .geometry import GroupGeometry
from .numerics import plane_exp, quartic_exp, write_csv
from .systems import MatrixGroupSystem

GAUSS_NODES = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
GAUSS_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])

# the logarithmic rho sweep of the conjugate-point test, 2^-6 .. 2^6
DEFAULT_RHO_GRID = tuple(2.0 ** k for k in range(-6, 7))


def chart_field_jacobian(chart: GroupChart, algebra_elem: np.ndarray) -> np.ndarray:
    """Exact Jacobian at the origin of the chart components of g A; a
    (k, d, d) stack of algebra elements gives a (k, n, n) stack.

    With W = sum_j c_j(x) v_j(x) and dv_j/dx_k = [v_j, v_k], the partials
    solve 0 = sum_j (dc_j/dx_k) B_j + sum_{j > k} c_j [B_j, B_k]; the
    brackets [B_j, B_k] come from one stacked commutator of the frame,
    masked to j > k.
    """
    origin = np.zeros(chart.n)
    frame = chart.frame_algebra
    c0 = chart.solve_in_frame(origin, algebra_elem)
    brackets = commutator(frame[:, None], frame[None, :])
    brackets *= np.tri(chart.n, k=-1)[:, :, None, None]
    # acc[..., k] = sum_{j > k} c0_j [B_j, B_k]
    acc = np.einsum("...j,jkab->...kab", c0, brackets)
    return -np.swapaxes(chart.solve_in_frame(origin, acc), -1, -2)


def chart_field_jacobian_fd(chart: GroupChart, algebra_elem: np.ndarray,
                            h: float = 1e-5) -> np.ndarray:
    """Central-difference oracle for chart_field_jacobian."""
    jac = np.zeros((chart.n, chart.n))
    for k in range(chart.n):
        e = np.zeros(chart.n)
        e[k] = h
        cp = chart.solve_in_frame(e, algebra_elem)
        cm = chart.solve_in_frame(-e, algebra_elem)
        jac[:, k] = (cp - cm) / (2 * h)
    return jac


@dataclass
class SecondVariationProblem:
    """LQ data (Z, C, a, E) of the extended second variation.

    `coefficients` evaluates Z, C and a on a (T,) array of times at once,
    C the one constant m x m matrix broadcast over the times; z_fn, c_fn
    and a_fn are its views at a single time. `jacobi` gives the
    fundamental matrix Phi(t), Phi(0) = I, of the Jacobi system
    (Omega; X)' = U W (Omega; X), U = [-a^T; Z], W = L^-1 [Z^T, a], L = -C.
    """

    horizon: float
    n: int
    m: int
    R: int
    coefficients: object    # (T,) -> Z (T, n, m), C (T, m, m), a (T, m, n)
    jacobi: object          # (T,) -> Phi (T, 2n, 2n)
    e_mat: np.ndarray       # (n, R)

    def z_fn(self, t) -> np.ndarray:
        return self.coefficients(np.array([t]))[0][0]

    def c_fn(self, t) -> np.ndarray:
        return self.coefficients(np.array([t]))[1][0]

    def a_fn(self, t) -> np.ndarray:
        return self.coefficients(np.array([t]))[2][0]


def assemble_lq(system: MatrixGroupSystem, extremal: ExtremalTrajectory,
                chart: GroupChart) -> SecondVariationProblem:
    """Assemble the LQ second-variation data in the adapted chart, and its
    Jacobi flow in closed form.

    The reference arc is the drift orbit exp(t A_0). Every coefficient is
    linear in Ad_exp(t A_0) = exp(t ad_A0) applied to a fixed algebra
    element, so the linear maps are tabulated once, in the coordinates of
    the chart frame (a basis of the whole algebra): `ad` has the
    coordinates of [A_0, B_k] as columns, Z(0) is its first m columns and
    row k of `rows` is -p_hat^T chart_field_jacobian(B_k), each table from
    one stacked solve in the frame at the origin. With T(t) = exp(t ad),
    Z(t) = T Z(0) and a(t) = Z(t)^T rows. C(t) = -(c0 . (pi T)), with c0
    the frame coordinates of the [A_i, [A_j, A_0]] and pi_k = <p(0), B_k>,
    and the premise pi0 ad = 0 gives pi T = pi: C is the constant
    -legendre_form(p(0)), the Legendre form the conditions stage checks,
    taken once.

    The Jacobi generator A(t) = U W is then e^{t Gamma} A(0) e^{-t Gamma},
    Gamma = [[-ad^T, -(ad^T rows^T + rows^T ad)], [0, ad]], so the flow is
    Phi(t) = e^{t Gamma} e^{t M}, M = A(0) - Gamma, lam = tr(A_0^2)/2. Its
    four premises are checked here against a rounding bound fixed in
    advance: Gamma^3 = lam Gamma (A_0 single-plane, so ad^3 = lam ad, T(t)
    and e^{t Gamma} are `plane_exp`s; tr(ad^2)/2 is not lam); pi0 ad = 0
    (C constant: a relative equilibrium); ad^T D + D ad = 0 with
    D = rows - rows^T (a(t) and the Omega-block of A(t) move with
    e^{t Gamma}); and M^4 = lam M^2 (e^{t M} is a `quartic_exp`). A
    failed premise raises LinAlgError naming it, as does an arc that is
    not finite.
    """
    require_finite(extremal)
    m, n = system.m, chart.n
    origin = np.zeros(n)
    frame = np.array(chart.frame_algebra)
    e_mat = chart.solve_in_frame(origin, frame[: chart.R]).T
    if np.linalg.cond(e_mat[: chart.R, :]) > 1e8:
        raise RuntimeError("controlled-algebra basis degenerate at basepoint")

    a0 = system.drift
    ad = chart.solve_in_frame(origin, commutator(a0, frame)).T
    lam = 0.5 * np.trace(a0 @ a0)
    ad_sq = ad @ ad
    z0 = ad[:, :m]
    rows = -(chart.p_hat @ chart_field_jacobian(chart, frame))
    pi0 = pairing(extremal.p[0], frame)
    c = -legendre_form(system, extremal.p[0])

    def coefficients(ts):
        t = np.asarray(ts, dtype=float)
        transport = plane_exp(t[:, None, None] * ad, lam * t * t,
                              (t * t)[:, None, None] * ad_sq)
        z = transport @ z0
        a = np.swapaxes(z, -1, -2) @ rows
        return z, np.broadcast_to(c, (t.size, m, m)), a

    z, _, a = (x[0] for x in coefficients(np.zeros(1)))
    gen0 = np.concatenate([-a.T, z]) @ np.linalg.solve(
        -c, np.concatenate([z.T, a], axis=1))
    gamma = np.block([[-ad.T, -(ad.T @ rows.T + rows.T @ ad)],
                      [np.zeros((n, n)), ad]])
    m_gen = gen0 - gamma
    gamma_sq, m_sq = gamma @ gamma, m_gen @ m_gen
    m_cube = m_sq @ m_gen
    d_mat = rows - rows.T

    # (premise, residual, factors): the bound is 1e-12 times the product of
    # max(1, max|f|) over the factors f of the residual's terms
    for name, residual, factors in (
            ("Gamma^3 = lam Gamma (a single-plane drift)",
             gamma_sq @ gamma - lam * gamma, (gamma,) * 3),
            ("pi0 ad = 0 (a constant C)", pi0 @ ad, (pi0, ad)),
            ("ad^T D + D ad = 0 (D = rows - rows^T)",
             ad.T @ d_mat + d_mat @ ad, (ad, d_mat)),
            ("M^4 = lam M^2 (M = A(0) - Gamma)", m_sq @ m_sq - lam * m_sq,
             (m_gen,) * 4)):
        worst = np.max(np.abs(residual))
        bound = 1e-12 * np.prod([max(1.0, np.max(np.abs(f))) for f in factors])
        if not worst <= bound:
            raise np.linalg.LinAlgError(
                f"premise {name} fails: residual {worst:.3g} over its bound "
                f"{bound:.3g}")

    def jacobi(ts):
        t = np.asarray(ts, dtype=float)[:, None, None]
        lam_t = lam * t[:, 0, 0] ** 2
        return plane_exp(t * gamma, lam_t, t * t * gamma_sq) @ quartic_exp(
            t * m_gen, lam_t, t * t * m_sq, t ** 3 * m_cube)

    return SecondVariationProblem(
        horizon=extremal.horizon, n=n, m=m, R=chart.R,
        coefficients=coefficients, jacobi=jacobi, e_mat=e_mat)


@dataclass
class GalerkinAssembly:
    """Dense quadratic form and constraint data for one mesh level."""

    quad: np.ndarray
    gram: np.ndarray
    constraint: np.ndarray
    kernel: np.ndarray
    constraint_rank: int

    def value(self, vars_vec: np.ndarray) -> float:
        v = np.asarray(vars_vec, dtype=float)
        return float(v @ self.quad @ v)


def _gauss_points(a, b):
    """3-point Gauss nodes and weights on [a, b], broadcast over arrays."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * GAUSS_NODES, half * GAUSS_WEIGHTS


def galerkin_assemble(problem: SecondVariationProblem,
                      k_pieces: int) -> GalerkinAssembly:
    """Assemble the quadratic form on (initial variation, piecewise-const w).

    The initial variation ranges over the R controlled directions e_mat.
    The end is fixed, with no free directions: the constraint is the map
    to zeta(T), and the kernel spans its null space. The coefficients
    come from one evaluation at the 3K outer Gauss nodes and the 9K inner
    ones, the nodes of the integral of Z from the left edge of a piece to
    each of its outer nodes.
    """
    n, m, n_init = problem.n, problem.m, problem.R
    dim = n_init + m * k_pieces
    edges = np.linspace(0.0, problem.horizon, k_pieces + 1)
    h = edges[1] - edges[0]
    tg, wg = _gauss_points(edges[:-1, None], edges[1:, None])       # (K, 3)
    tg2, wg2 = _gauss_points(edges[:-1, None, None], tg[..., None])  # (K, 3, 3)
    z, c_t, a_t = problem.coefficients(np.concatenate([tg.ravel(),
                                                       tg2.ravel()]))
    outer = tg.size
    shape = (k_pieces, 3)
    z_inner = z[outer:].reshape(shape + (3, n, m))
    z = z[:outer].reshape(shape + (n, m))
    c_t = c_t[:outer].reshape(shape + (m, m))
    a_t = a_t[:outer].reshape(shape + (m, n))

    g_int = np.einsum("kq,kqij->kij", wg, z)     # per-piece integrals of Z
    # the integral of Z from the left edge of piece k to its node q
    z_head = np.einsum("kqr,kqrij->kqij", wg2, z_inner)
    a_w = np.einsum("kq,kqij->kij", wg, a_t)
    # zeta at a node of piece k is e_mat eps + the integrals of Z over the
    # earlier pieces + z_head on piece k; block row k is the weighted sum
    # over the nodes of 0.5 C on piece k plus a times that map
    blocks = np.einsum("kin,jnl->kijl", a_w, g_int)
    blocks *= np.tri(k_pieces, k=-1)[:, None, :, None]
    pieces = np.arange(k_pieces)
    blocks[pieces, :, pieces] = np.einsum("kq,kqij->kij", wg,
                                          0.5 * c_t + a_t @ z_head)
    quad_raw = np.zeros((dim, dim))
    quad_raw[n_init:, :n_init] = (a_w @ problem.e_mat).reshape(-1, n_init)
    quad_raw[n_init:, n_init:] = blocks.reshape(dim - n_init, dim - n_init)
    quad = 0.5 * (quad_raw + quad_raw.T)

    gram = np.diag(np.concatenate([np.ones(n_init),
                                   np.full(dim - n_init, h)]))

    # zeta(T) as a linear map of the variables
    constraint = np.hstack([problem.e_mat,
                            g_int.transpose(1, 0, 2).reshape(n, -1)])
    _, s_c, vt_c = np.linalg.svd(constraint)
    c_rank = int(np.sum(s_c > 1e-10 * s_c[0]))
    kernel = vt_c[c_rank:].T
    return GalerkinAssembly(quad, gram, constraint, kernel, c_rank)


@dataclass
class CoercivityReport:
    method: str
    verdict: str
    margin: float
    # the conjugate-point rho the verdict rests on; no rho enters Galerkin
    rho: float | None = None
    refinements: list = field(default_factory=list)
    det_trace: np.ndarray = None
    det_grid: np.ndarray = None
    metadata: dict = field(default_factory=dict)

    @property
    def coercive(self) -> bool:
        return self.verdict == "coercive"

    def as_dict(self) -> dict:
        out = {
            "method": self.method,
            "verdict": self.verdict,
            "margin": float(self.margin),
            "refinements": [dict(r) for r in self.refinements],
        }
        if self.rho is not None:
            out["rho"] = float(self.rho)
        if self.det_trace is not None:
            out["det_trace"] = [float(v) for v in self.det_trace]
        out.update(self.metadata)
        return out


def coercivity_floor(problem: SecondVariationProblem) -> float:
    """Margins below this scale-aware floor, 1e-4 times the Frobenius norm
    of the constant C, never support a verdict."""
    return 1e-4 * np.linalg.norm(problem.c_fn(0.0))


def galerkin_coercivity(problem: SecondVariationProblem,
                        k_pieces: int) -> CoercivityReport:
    """Galerkin eigenvalue decision on the constrained quadratic form."""
    if k_pieces < 4:
        raise ValueError("need at least 4 Galerkin pieces")
    floor = coercivity_floor(problem)
    refinements = []
    margins = []
    for level in (k_pieces, 2 * k_pieces, 4 * k_pieces):
        asm = galerkin_assemble(problem, level)
        v = asm.kernel
        if v.shape[1] == 0:
            margins.append(np.inf)
            refinements.append({"K": level, "margin": np.inf,
                                "constraint_rank": asm.constraint_rank})
            continue
        q_r = v.T @ asm.quad @ v
        g_r = v.T @ asm.gram @ v
        eigs = eigh(q_r, g_r, eigvals_only=True)
        margins.append(float(eigs[0]))
        refinements.append({"K": level, "margin": float(eigs[0]),
                            "constraint_rank": asm.constraint_rank})
    ok = all(mg >= floor for mg in margins)
    if ok and np.isfinite(margins[0]):
        ok = margins[-1] >= 0.5 * margins[0]
    return CoercivityReport(
        method="galerkin",
        verdict="coercive" if ok else "not coercive",
        margin=float(margins[-1]), refinements=refinements,
        metadata={"floor": float(floor)})


def conjugate_point_trace(problem: SecondVariationProblem, rho_grid,
                          n_steps: int = 200):
    """Det of the base projection X_rho(t) of the transported L'' subspace
    on an n_steps uniform grid, one row per rho.

    The Jacobi system is linear, so the flow from (Omega, X) = (-rho P, I),
    P the projection onto coordinates R..n-1, is X_rho = X_I + rho X_P:
    X_I = Phi[n:, n:] and X_P = -Phi[n:, :n] P, read from the closed form
    Phi = e^{t Gamma} e^{t M} of `problem.jacobi` (see assemble_lq).
    Columns :R of X_P are 0, so one stacked complete QR of X_I[:, :R] =
    Q R1 per time gives det X_rho = det Q prod diag R1 det(Q2^T (X_I +
    rho X_P)[:, R:]), Q2 = Q[:, R:]: the rho sweep takes (n - R) x (n - R)
    determinants only. An overflow comes back non-finite, with no numpy
    warning, and then no rho's det is finite.
    """
    n, r = problem.n, problem.R
    grid = np.linspace(0.0, problem.horizon, n_steps + 1)
    rho = np.asarray(rho_grid, dtype=float)[:, None, None, None]
    # an overflowed det is a non-finite entry, which conjugate_point_test
    # refuses
    with np.errstate(over="ignore", invalid="ignore"):
        phi = problem.jacobi(grid)
        x_i, x_p = phi[:, n:, n:], -phi[:, n:, r:n]
        q, r1 = np.linalg.qr(x_i[:, :, :r], mode="complete")
        head = np.linalg.det(q) * np.prod(
            np.diagonal(r1, axis1=-2, axis2=-1), axis=-1)
        q2t = np.swapaxes(q[:, :, r:], -1, -2)
        block = q2t @ x_i[:, :, r:] + rho * (q2t @ x_p)
        return grid, head * np.linalg.det(block)


def conjugate_point_test(problem: SecondVariationProblem,
                         rho_grid=DEFAULT_RHO_GRID, n_steps: int = 200,
                         det_floor: float = 0.1) -> CoercivityReport:
    """Conjugate-point decision over a logarithmic rho sweep.

    The ratio of a rho is min_t |det X_rho(t)| / |det X_rho(0)| on the
    n_steps grid; a rho whose trace holds a non-finite det, an overflow,
    has no ratio (NaN) and never passes. Coercive at the first rho of
    rho_grid whose ratio is at least det_floor, reported at that rho;
    otherwise not coercive, reported at the rho with the largest ratio.
    One Jacobi flow decides the whole sweep (see conjugate_point_trace).
    When no rho has a ratio, as on a long hyperbolic arc whose Jacobi
    flow outgrows the floats, the report's reason names the grid time by
    which every rho's det has overflowed.
    """
    grid, dets = conjugate_point_trace(problem, rho_grid, n_steps)
    lost = ~np.isfinite(dets)
    ratios = np.where(lost.any(axis=1), np.nan,
                      np.min(np.abs(dets), axis=1) / np.abs(dets[:, 0]))
    passing = np.flatnonzero(ratios >= det_floor)
    k = int(passing[0]) if passing.size else \
        int(np.argmax(np.nan_to_num(ratios, nan=-np.inf)))
    metadata = {"det_floor": det_floor}
    if np.isnan(ratios).all():
        t_lost = grid[np.max(np.argmax(lost, axis=1))]
        metadata["reason"] = (
            f"every rho's det X_rho has overflowed by t = {t_lost:.6g}, the "
            f"first grid time where that holds")
    return CoercivityReport(
        method="conjugate_point",
        verdict="coercive" if passing.size else "not coercive",
        margin=float(ratios[k]), rho=float(rho_grid[k]),
        refinements=[{"rho": float(rho), "min_det_ratio": float(ratio)}
                     for rho, ratio in zip(rho_grid, ratios)],
        det_trace=dets[k], det_grid=grid, metadata=metadata)


def lq_hamiltonian(problem: SecondVariationProblem, t: float,
                   omega: np.ndarray, delta_x: np.ndarray) -> float:
    """H''_t(omega, delta_x) = 1/2 L^-1 [Z^T omega + a delta_x]^2."""
    b = problem.z_fn(t).T @ omega + problem.a_fn(t) @ delta_x
    l_inv = np.linalg.inv(-problem.c_fn(t))
    return 0.5 * float(b @ l_inv @ b)


def iota_equivalence_check(problem: SecondVariationProblem,
                           system: MatrixGroupSystem, chart: GroupChart,
                           extremal: ExtremalTrajectory, n_samples: int = 5,
                           h: float = 1e-4, seed: int = 0) -> dict:
    """H'' against -1/2 D^2(chi o F_t) composed with iota, by second
    differences through the reference flow."""
    geom = GroupGeometry(system)
    rng = np.random.default_rng(seed)
    grid = extremal.grid
    rows = []
    for _ in range(n_samples):
        idx = int(rng.integers(1, grid.size))
        t = float(grid[idx])
        omega = rng.standard_normal(problem.n)
        delta_x = rng.standard_normal(problem.n)
        h_val = lq_hamiltonian(problem, t, omega, delta_x)
        m_t, m_t_inv = extremal.q[idx], reference_flow(system, [-t])[0]

        def g_second(step):
            vals = [geom.chi(coadjoint_transport(chart.covector_from_chart(
                        s * delta_x, chart.p_hat - s * omega), m_t, m_t_inv))
                    for s in (step, -step)]
            base = geom.chi(extremal.p[idx])
            return 0.5 * (vals[0] - 2.0 * base + vals[1]) / step ** 2

        scale = max(abs(h_val), 1.0)
        err_h = abs(-g_second(h) - h_val) / scale
        # order estimated above the roundoff floor of the second differences
        err_8h = abs(-g_second(8.0 * h) - h_val) / scale
        err_4h = abs(-g_second(4.0 * h) - h_val) / scale
        order = float(np.log2(err_8h / err_4h)) if err_4h > 0 else np.inf
        rows.append({"t": t, "h_lq": h_val, "rel_error": err_h,
                     "order": order})
    return {
        "samples": rows,
        "max_rel_error": max(r["rel_error"] for r in rows),
        "min_order": min(r["order"] for r in rows),
    }


def det_trace_to_csv(report: CoercivityReport, path) -> None:
    d0 = abs(report.det_trace[0])
    write_csv(path, ["t", "det", "abs_det_ratio"],
              ((t, v, abs(v) / d0)
               for t, v in zip(report.det_grid, report.det_trace)))
