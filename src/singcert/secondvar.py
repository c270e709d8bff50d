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
from scipy.linalg import eigh, qr
from scipy.linalg.lapack import dormqr

from .algebra import commutator, pairing
from .chart import GroupChart
from .extremal import (ExtremalTrajectory, coadjoint_transport,
                       legendre_form, require_finite)
from .geometry import GroupGeometry
from .numerics import plane_exp, plane_series, quartic_exp, write_csv
from .systems import MatrixGroupSystem

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
    """LQ data (Z, C, a, E) of the extended second variation, held as the
    constant tables of its moving frame.

    With T(t) = exp(t ad), ad^3 = lam ad: Z(t) = T(t) z0, a(t) = Z(t)^T rows
    and C is the constant c. `coefficients` evaluates Z, C and a on a (T,)
    array of times at once; z_fn, c_fn and a_fn are its views at a single
    time. The Jacobi system (Omega; X)' = U W (Omega; X), U = [-a^T; Z],
    W = L^-1 [Z^T, a], L = -C, has the flow Phi(t) = e^{t Gamma} e^{t M}
    (see assemble_lq); flow_rows holds rows n: and columns R: of M, M^2
    and M^3, all that `base_rows` reads.
    """

    horizon: float
    n: int
    m: int
    R: int
    ad: np.ndarray          # (n, n)
    z0: np.ndarray          # (n, m)
    rows: np.ndarray        # (n, n)
    c: np.ndarray           # (m, m)
    lam: float
    flow_rows: np.ndarray   # (3, n, 2n - R)

    def transport(self, ts) -> np.ndarray:
        """T(t) = exp(t ad) on a (T,) array of times, a `plane_exp`."""
        t = np.asarray(ts, dtype=float)
        return plane_exp(t[:, None, None] * self.ad, self.lam * t * t,
                         (t * t)[:, None, None] * (self.ad @ self.ad))

    def coefficients(self, ts):
        """Z (T, n, m), C (T, m, m) and a (T, m, n) on a (T,) array."""
        z = self.transport(ts) @ self.z0
        a = np.swapaxes(z, -1, -2) @ self.rows
        return z, np.broadcast_to(self.c, (len(z), self.m, self.m)), a

    def z_fn(self, t) -> np.ndarray:
        return self.coefficients(np.array([t]))[0][0]

    def c_fn(self, t) -> np.ndarray:
        return self.coefficients(np.array([t]))[1][0]

    def a_fn(self, t) -> np.ndarray:
        return self.coefficients(np.array([t]))[2][0]

    def base_rows(self, ts) -> np.ndarray:
        """Rows n: and columns R: of Phi(t) on a (T,) array of times, a
        (T, n, 2n - R) array. e^{t Gamma} is block upper triangular with
        lower block T(t), so they are T(t) times those of the
        `quartic_exp` e^{t M}."""
        t = np.asarray(ts, dtype=float)
        tt, (m1, m2, m3) = t[:, None, None], self.flow_rows
        n, r = self.n, self.R
        head = quartic_exp(tt * m1, self.lam * t * t, tt * tt * m2,
                           tt ** 3 * m3, np.eye(n, 2 * n - r, n - r))
        return self.transport(t) @ head


def assemble_lq(system: MatrixGroupSystem, extremal: ExtremalTrajectory,
                chart: GroupChart) -> SecondVariationProblem:
    """Tabulate the LQ second-variation data in the adapted chart, and
    check the premises of its closed forms.

    The reference arc is the drift orbit exp(t A_0). Every coefficient is
    linear in Ad_exp(t A_0) = exp(t ad_A0) applied to a fixed algebra
    element, so the linear maps are tabulated once, in the coordinates of
    the chart frame (a basis of the whole algebra): `ad` has the
    coordinates of [A_0, B_k] as columns, z0 = Z(0) is its first m columns
    and row k of `rows` is -p_hat^T chart_field_jacobian(B_k), each table
    from one stacked solve in the frame at the origin. C(t) =
    -(c0 . (pi T)), with c0 the frame coordinates of the [A_i, [A_j, A_0]]
    and pi_k = <p(0), B_k>, and the premise pi0 ad = 0 gives pi T = pi: C is
    the constant -legendre_form(p(0)), the Legendre form the conditions
    stage checks, taken once.

    The Jacobi generator A(t) = U W is then e^{t Gamma} A(0) e^{-t Gamma},
    Gamma = [[-ad^T, -(ad^T rows^T + rows^T ad)], [0, ad]], so the flow is
    Phi(t) = e^{t Gamma} e^{t M}, M = A(0) - Gamma, lam = tr(A_0^2)/2. Its
    four premises are checked here against a rounding bound fixed in
    advance: Gamma^3 = lam Gamma (A_0 single-plane, so ad^3 = lam ad, T(t)
    and e^{t Gamma} are `plane_exp`s; tr(ad^2)/2 is not lam); pi0 ad = 0
    (C constant: a relative equilibrium); ad^T D + D ad = 0 with
    D = rows - rows^T (a(t) and the Omega-block of A(t) move with
    e^{t Gamma}, and T^T D T = D); and M^4 = lam M^2 (e^{t M} is a
    `quartic_exp`). A failed premise raises LinAlgError naming it, as does
    an arc that is not finite.
    """
    require_finite(extremal)
    m, n, r = system.m, chart.n, chart.R
    origin = np.zeros(n)
    frame = np.array(chart.frame_algebra)
    a0 = system.drift
    ad = chart.solve_in_frame(origin, commutator(a0, frame)).T
    lam = 0.5 * np.trace(a0 @ a0)
    z0 = ad[:, :m]
    rows = -(chart.p_hat @ chart_field_jacobian(chart, frame))
    pi0 = pairing(extremal.p[0], frame)
    c = -legendre_form(system, extremal.p[0])

    a = z0.T @ rows
    gen0 = np.concatenate([-a.T, z0]) @ np.linalg.solve(
        -c, np.concatenate([z0.T, a], axis=1))
    gamma = np.block([[-ad.T, -(ad.T @ rows.T + rows.T @ ad)],
                      [np.zeros((n, n)), ad]])
    m_gen = gen0 - gamma
    m_sq = m_gen @ m_gen
    d_mat = rows - rows.T

    # (premise, residual, factors): the bound is 1e-12 times the product of
    # max(1, max|f|) over the factors f of the residual's terms
    for name, residual, factors in (
            ("Gamma^3 = lam Gamma (a single-plane drift)",
             gamma @ gamma @ gamma - lam * gamma, (gamma,) * 3),
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

    return SecondVariationProblem(
        horizon=extremal.horizon, n=n, m=m, R=r, ad=ad, z0=z0,
        rows=rows, c=c, lam=lam,
        flow_rows=np.stack([m_gen, m_sq, m_sq @ m_gen])[:, n:, r:])


@dataclass
class GalerkinAssembly:
    """Quadratic form, the diagonal of its gram matrix and the endpoint
    constraint, for one mesh level."""

    quad: np.ndarray
    gram: np.ndarray
    constraint: np.ndarray

    def value(self, vars_vec: np.ndarray) -> float:
        v = np.asarray(vars_vec, dtype=float)
        return float(v @ self.quad @ v)


def galerkin_assemble(problem: SecondVariationProblem,
                      k_pieces: int) -> GalerkinAssembly:
    """Assemble the quadratic form on the initial variation eps and a
    piecewise-constant w exactly, in the moving frame zeta~ = T(t)^-1 zeta.

    There zeta~' = -ad zeta~ + z0 w, zeta~(0) = (eps, 0), and the cross
    term w^T a zeta = zeta'^T rows zeta splits into the boundary term
    1/2 [zeta^T rows_s zeta]_0^H of rows_s = (rows + rows^T)/2 and
    1/2 w^T z0^T D zeta~ (T^T D T = D), so J'' = int 1/2 w^T C w +
    1/2 w^T z0^T D zeta~ dt + 1/2 [zeta^T rows_s zeta]_0^H has constant
    coefficients. With h = H/K, E = e^{-h ad}, F = int_0^h e^{-s ad} ds and
    G = int_0^h F(s) ds, piece k starts at zeta~_k = E^k zeta~(0) +
    sum_{j<k} E^{k-1-j} F z0 w_j, and adds 1/2 h w_k^T C w_k +
    1/2 w_k^T z0^T D (F zeta~_k + G z0 w_k). So block (k, j < k) of the w
    part is 1/2 z0^T D F E^{k-1-j} F z0, lower-block-Toeplitz. The
    constraint is zeta~(H) = 0, and there the boundary term at H vanishes,
    so it is left out: `value` is J'' on the constraint set. The E^k come
    from one stacked `plane_exp`; F and G are series in h ad (ad^3 =
    lam ad).
    """
    n, m, r = problem.n, problem.m, problem.R
    h = problem.horizon / k_pieces
    ad, z0, rows = problem.ad, problem.z0, problem.rows
    ad_sq, eye = ad @ ad, np.eye(n)
    _, s2, s3, s4 = plane_series(problem.lam * h * h, tails=True)
    f = h * eye - h ** 2 * s2 * ad + h ** 3 * s3 * ad_sq
    g = 0.5 * h ** 2 * eye - h ** 3 * s3 * ad + h ** 4 * s4 * ad_sq
    powers = problem.transport(-h * np.arange(k_pieces + 1))   # E^k
    left = 0.5 * z0.T @ (rows - rows.T)
    steps = powers[:-1] @ (f @ z0)              # E^l F z0, l = 0 .. K-1
    # block (k, j) of the w part is table[k - j], and zero above k = j
    table = np.concatenate([[0.5 * h * problem.c + left @ g @ z0],
                            (left @ f @ steps)[:-1], np.zeros((1, m, m))])
    pieces = np.arange(k_pieces)
    blocks = table[np.maximum(np.subtract.outer(pieces, pieces), -1)]
    dim = r + m * k_pieces
    quad_raw = np.zeros((dim, dim))
    quad_raw[:r, :r] = -0.25 * (rows + rows.T)[:r, :r]
    quad_raw[r:, :r] = (left @ f @ powers[:-1])[..., :r].reshape(-1, r)
    quad_raw[r:, r:] = blocks.transpose(0, 2, 1, 3).reshape(dim - r, dim - r)
    constraint = np.hstack([powers[-1][:, :r],
                            steps[::-1].transpose(1, 0, 2).reshape(n, -1)])
    gram = np.concatenate([np.ones(r), np.full(dim - r, h)])
    return GalerkinAssembly(0.5 * (quad_raw + quad_raw.T), gram, constraint)


def _constrained_minimum(asm: GalerkinAssembly) -> tuple[float, int]:
    """Least eigenvalue of the form on the constraint's null space, in the
    gram inner product, and the constraint's rank. Scaled by gram^-1/2 the
    gram matrix is I; the rank comes from a thin SVD of the scaled
    constraint, and the Householder reflectors of its row space, applied to
    both sides of the scaled form, leave the null space as the trailing
    block, one standard symmetric eigenproblem."""
    scale = 1.0 / np.sqrt(asm.gram)
    _, sing, vt = np.linalg.svd(asm.constraint * scale, full_matrices=False)
    rank = int(np.sum(sing > 1e-10 * sing[0]))
    (refl, tau), _ = qr(vt[:rank].T, mode="raw")
    quad = asm.quad * np.outer(scale, scale)
    for side, trans in (("L", "T"), ("R", "N")):
        quad = dormqr(side, trans, refl, tau, quad, scale.size)[0]
    return float(eigh(quad[rank:, rank:], eigvals_only=True,
                      subset_by_index=[0, 0])[0]), rank


@dataclass
class CoercivityReport:
    method: str
    verdict: str
    margin: float
    # the conjugate-point rho the verdict rests on; no rho enters Galerkin
    rho: float | None = None
    refinements: list = field(default_factory=list)
    det_trace: np.ndarray = None   # det_trace.csv, not emitted
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
        out.update(self.metadata)
        return out


def coercivity_floor(problem: SecondVariationProblem) -> float:
    """Margins below this scale-aware floor, 1e-4 times the Frobenius norm
    of the constant C, never support a verdict."""
    return 1e-4 * np.linalg.norm(problem.c_fn(0.0))


def galerkin_coercivity(problem: SecondVariationProblem,
                        k_pieces: int) -> CoercivityReport:
    """Galerkin eigenvalue decision on the constrained quadratic form, at
    K, 2K and 4K pieces: coercive when every level's margin is at least
    the floor and the last is at least half the first. Otherwise the
    report's reason names the first of these inequalities that fails."""
    if k_pieces < 4:
        raise ValueError("need at least 4 Galerkin pieces")
    floor = coercivity_floor(problem)
    refinements = []
    for level in (k_pieces, 2 * k_pieces, 4 * k_pieces):
        margin, rank = _constrained_minimum(galerkin_assemble(problem, level))
        refinements.append({"K": level, "margin": margin,
                            "constraint_rank": rank})
    first, last = refinements[0], refinements[-1]
    metadata = {"floor": float(floor)}
    low = [lv for lv in refinements if not lv["margin"] >= floor]
    if low:
        metadata["reason"] = (
            f"the margin {low[0]['margin']:.6g} at K = {low[0]['K']} is "
            f"under the floor {floor:.6g}")
    elif not last["margin"] >= 0.5 * first["margin"]:
        metadata["reason"] = (
            f"the margins do not settle: {last['margin']:.6g} at "
            f"K = {last['K']} is under half the {first['margin']:.6g} at "
            f"K = {first['K']}")
    return CoercivityReport(
        method="galerkin",
        verdict="not coercive" if "reason" in metadata else "coercive",
        margin=float(last["margin"]), refinements=refinements,
        metadata=metadata)


def conjugate_point_trace(problem: SecondVariationProblem, rho_grid,
                          n_steps: int = 200):
    """Det of the base projection X_rho(t) of the transported L'' subspace
    on an n_steps uniform grid, one row per rho.

    The Jacobi system is linear, so the flow from (Omega, X) = (-rho P, I),
    P the projection onto coordinates R..n-1, is X_rho = X_I + rho X_P:
    X_I = Phi[n:, n:] and X_P = -Phi[n:, :n] P, read from the base rows
    Phi[n:, R:] of the closed form Phi = e^{t Gamma} e^{t M}
    (`problem.base_rows`).
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
        base = problem.base_rows(grid)
        x_i, x_p = base[:, :, n - r:], -base[:, :, :n - r]
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
        m_t = extremal.q[idx]

        def g_second(step):
            vals = [geom.chi(coadjoint_transport(chart.covector_from_chart(
                        s * delta_x, chart.p_hat - s * omega), m_t,
                        system.inverse(m_t)))
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
