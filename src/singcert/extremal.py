"""Reference flows, adjoint transport, and the necessary-condition battery."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .algebra import (commutator, numerical_rank, pairing, so_residual,
                      span_contains)
from .numerics import write_csv
from .systems import MatrixGroupSystem


@dataclass
class ExtremalTrajectory:
    """The singular arc: the drift orbit q(t) = exp(t A0) with u = 0, and
    its covector lift p(t), as (T, d, d) arrays on the grid. Each p is a
    matrix covector acting by the trace pairing."""

    system: MatrixGroupSystem
    grid: np.ndarray
    q: np.ndarray
    p: np.ndarray

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])


def reference_flow(system: MatrixGroupSystem, grid) -> np.ndarray:
    """The reference flow exp(t A0), M' = M A0 with M(0) = I and u = 0, on
    the time grid, by exact exponentials: a (T, d, d) array."""
    return expm(np.asarray(grid, dtype=float)[:, None, None] * system.drift)


def coadjoint_transport(p0: np.ndarray, m: np.ndarray,
                        m_inv: np.ndarray) -> np.ndarray:
    """Covector p(t) with <p(t), B> = <p0, M B M^-1> for every B, for one
    group element M or a (T, d, d) stack of them, given their inverses."""
    return np.swapaxes(m, -1, -2) @ p0 @ np.swapaxes(m_inv, -1, -2)


def adjoint_trajectory(system: MatrixGroupSystem, p0: np.ndarray,
                       grid) -> ExtremalTrajectory:
    """Extremal lift along the reference flow by exact coadjoint transport,
    with q(t)^-1 in the group's closed form: one exponential per arc."""
    grid = np.asarray(grid, dtype=float)
    if np.max(np.abs(p0)) == 0.0:
        raise ValueError("covector must be nonzero")
    # a long hyperbolic arc overflows; require_finite names where
    with np.errstate(over="ignore", invalid="ignore"):
        q = reference_flow(system, grid)
        p = coadjoint_transport(p0, q, system.inverse(q))
    return ExtremalTrajectory(system, grid, q, p)


def require_finite(trajectory: ExtremalTrajectory) -> None:
    """Raise LinAlgError, naming the first grid time, where the arc's q or
    p is not finite: every stage that reads the arc calls this first, so a
    long hyperbolic arc that overflowed is reported as such."""
    finite = np.all(np.isfinite(trajectory.q) & np.isfinite(trajectory.p),
                    axis=(-2, -1))
    if not finite.all():
        raise np.linalg.LinAlgError(
            f"reference arc is not finite at t = "
            f"{trajectory.grid[np.argmin(finite)]:.6g}, its first such grid "
            f"time")


# largest condition number of a Legendre form the singular feedback solves
LEGENDRE_COND_LIMIT = 1e8

# bound on the residuals of the structure hypotheses and of the chart's
# single-plane axes, which hold exactly: the tables are small integers
STRUCTURE_TOL = 1e-12

# the battery's fixed tolerances: no config or keyword moves a verdict
EQUALITY_TOL = 1e-9
RANK_TOL = 1e-8
SGLC_MIN_MARGIN = 1e-6


def hamiltonian_bracket(system: MatrixGroupSystem, p: np.ndarray, word):
    """Value <p, B_word> of the iterated Poisson bracket at the covector p,
    one value per covector of an (S, d, d) stack: the word-by-word oracle
    of the pairings the stages take with the system's bracket tables."""
    return pairing(p, system.bracket_matrix(word))


def hogc_residual(system: MatrixGroupSystem, p: np.ndarray):
    """Max |<p, B>| over the controlled Lie closure basis, one value per
    covector of an (S, d, d) stack."""
    return np.max(np.abs(pairing(p, system.lie_closure_basis)), axis=-1)


def s_residual(system: MatrixGroupSystem, p: np.ndarray):
    """Max |<p, [A0, A_i]>| over the controlled fields, which vanishes on
    the singular surface S, one value per covector of an (S, d, d) stack."""
    return np.max(np.abs(pairing(p, system.drift_brackets)), axis=-1)


def legendre_form(system: MatrixGroupSystem, p: np.ndarray) -> np.ndarray:
    """The m x m form with entries F_{ij0} at the covector p, an (S, m, m)
    stack for an (S, d, d) stack."""
    return pairing(p, system.legendre_brackets)


def singular_feedback(lforms: np.ndarray,
                      drift_terms: np.ndarray) -> np.ndarray:
    """Controls nu solving L nu = (F_{001}..F_{00m}) at every point of a
    stack: L is the (T, m, m) stack of Legendre forms and drift_terms the
    (T, m) right-hand sides; returns the (T, m) controls."""
    if np.any(np.linalg.cond(lforms) > LEGENDRE_COND_LIMIT):
        raise np.linalg.LinAlgError(
            "Legendre form is ill-conditioned; strengthened Legendre "
            "condition fails at this point"
        )
    return np.linalg.solve(lforms, drift_terms[..., None])[..., 0]


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    residual: float
    detail: dict = field(default_factory=dict)


def check_table(checks) -> dict:
    return {c.name: {"passed": bool(c.passed), "residual": float(c.residual),
                     **c.detail} for c in checks}


@dataclass(frozen=True)
class ConditionReport:
    """The arc's necessary conditions."""

    checks: tuple[ConditionCheck, ...]
    sglc_margin: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "sglc_margin": float(self.sglc_margin),
            "checks": check_table(self.checks),
        }


def _hypothesis(name: str, residual: float, bound: float, holds: bool = True,
                **detail) -> ConditionCheck:
    return ConditionCheck(name, bool(holds and residual <= bound), residual,
                          {"bound": bound, **detail})


def _rank_check(name: str, mats: np.ndarray, expected: int) -> ConditionCheck:
    rank = numerical_rank(mats.reshape(len(mats), -1))
    return _hypothesis(name, float(abs(rank - expected)), 0.0, rank=rank,
                       expected_rank=expected)


def verify_structure_properties(system: MatrixGroupSystem,
                                chart) -> tuple[ConditionCheck, ...]:
    """A run's hypotheses with their bounds: the sufficiency theorem's (a
    non-involutive distribution of constant dimension, S regular) and the
    closed forms' (single-plane chart axes, fields that are wedges with e1,
    annihilator coordinates that read X e0 isometrically)."""
    N, m, n = system.N, system.m, system.n
    a0 = system.drift
    closure = system.lie_closure_basis
    derived, drift_ai = system.derived, system.drift_brackets

    # (i) the depth-2 table is closed under brackets, so it spans Lie(A_i),
    # and it is an so(N) inside so(N+1) with zero first column, of
    # dimension N(N-1)/2
    res_i = max(span_contains(closure, commutator(closure[:, None], closure)),
                so_residual(closure), float(np.max(np.abs(closure[:, :, 0]))))
    dim = numerical_rank(closure.reshape(len(closure), -1))

    # (iv) [A_i, [A_i, A0]] = -A0 and [A_i, [A_j, A0]] = 0 for i != j
    res_iv = float(np.max(np.abs(system.legendre_brackets
                                 + np.eye(m)[:, :, None, None] * a0)))

    # (v) A0 and the [A0, A_i] commute modulo the controlled algebra; on
    # the flat form their brackets vanish outright
    family = np.concatenate([a0[None], drift_ai])
    pairs = commutator(family[:, None], family)
    res_v = span_contains(closure, pairs) if system.epsilon \
        else float(np.max(np.abs(pairs)))

    # (vi) A0 commutes with every [A_i, A_j]
    res_vi = float(np.max(np.abs(commutator(a0, derived))))

    # regularity of S: [A0, B] stays in Lie(A_i) + span{[A0, A_i]} for
    # every B in Lie(A_i), and the [A0, A_i] are independent modulo Lie(A_i)
    reg_span = np.concatenate([closure, drift_ai])
    reg_res = span_contains(reg_span, commutator(a0, closure))
    reg_rank = numerical_rank(reg_span.reshape(len(reg_span), -1), RANK_TOL)

    # x - c e1^T - e1 r^T (c = x[:, 1], r = x[1, :]) is 0 on a wedge with e1
    fields = np.concatenate([a0[None], np.array(system.controlled)])
    e1 = np.eye(len(a0))[1]
    res_wedge = float(np.max(np.abs(fields - fields[:, :, 1, None] * e1
                                    - e1[:, None] * fields[:, 1, None])))

    # on each chart axis B: B^3 = lam B, |x_ann(B)|_2 = |B e0|_2 (to d^2 eps)
    axes = chart.axes
    res_axes = float(np.max(np.abs(chart.axes_sq @ axes
                                   - chart.axes_lam[:, None, None] * axes)))
    ann = chart.b_pinv[chart.R:] @ axes.reshape(len(axes), -1).T
    res_ann = float(np.max(np.abs(ann.T @ ann
                                  - axes[:, :, 0] @ axes[:, :, 0].T)))

    return (
        _hypothesis("closure_so_N", res_i, STRUCTURE_TOL,
                    dim == N * (N - 1) // 2, dimension=dim,
                    expected_dimension=N * (N - 1) // 2),
        # (ii) the [A_i, A_j] span a subalgebra of dimension (N-1)(N-2)/2
        _rank_check("derived_dimension", derived, (N - 1) * (N - 2) // 2),
        # (iii) A_i, [A_i, A_j], [A0, A_i] and A0 form a basis of Lie(G)
        _rank_check("frame_basis_rank", system.algebra_basis, n),
        _hypothesis("double_bracket_drift", res_iv, STRUCTURE_TOL),
        _hypothesis("drift_family_commutes", res_v, STRUCTURE_TOL),
        _hypothesis("drift_commutes_derived", res_vi, STRUCTURE_TOL),
        _hypothesis("regularity_of_S", reg_res, EQUALITY_TOL,
                    reg_rank == system.R + m, rank=reg_rank,
                    expected_rank=system.R + m),
        _hypothesis("chart_axes_single_plane", res_axes, STRUCTURE_TOL),
        _hypothesis("fields_are_e1_wedges", res_wedge, 0.0),
        _hypothesis("annihilator_reads_first_column", res_ann,
                    axes.size * np.finfo(float).eps),
    )


def condition_battery(trajectory: ExtremalTrajectory) -> ConditionReport:
    """Scan the full necessary-condition battery along the trajectory.

    The arc is paired once with the frame `algebra_basis`: the switching,
    Goh, S-membership and normality checks read the (T, n) table's column
    blocks F_i, F_ij (i < j), F_0i and F_0, and hogc, over the first R
    columns (the controlled closure), is the larger of switching and Goh.
    Both Dubins endpoint manifolds are integral manifolds of the derived
    sub-algebra, so transversality reads the F_ij columns at p(0) and
    p(H). Raises LinAlgError, naming the first grid time, where the
    trajectory is not finite.
    """
    require_finite(trajectory)
    system = trajectory.system
    p = trajectory.p
    m, r = system.m, system.R

    frame = pairing(p, system.algebra_basis)
    f_ij = pairing(p, system.pair_brackets)
    lforms = legendre_form(system, p)
    f_0i = frame[:, r:r + m]
    f_00i = pairing(p, commutator(system.drift, system.drift_brackets))

    f_i_res = float(np.max(np.abs(frame[:, :m])))
    normality_res = float(np.max(np.abs(frame[:, -1] - 1.0)))
    goh_res = float(np.max(np.abs(frame[:, m:r])))
    hogc_res = max(f_i_res, goh_res)
    sym_res = float(np.max(np.abs(lforms - lforms.transpose(0, 2, 1))))
    eigs = np.linalg.eigvalsh(0.5 * (lforms + lforms.transpose(0, 2, 1)))
    eig_low = float(np.min(eigs[:, 0]))
    eig_high = float(np.max(eigs[:, -1]))
    f0i_res = float(np.max(np.abs(f_0i)))
    # residual of d/dt F_i = -(F_0i + sum u_j F_ji) under the feedback
    nu = singular_feedback(lforms, f_00i)
    resid = f_0i + sum(nu[:, j, None] * f_ij[:, j] for j in range(m))
    feedback_res = float(np.max(np.abs(resid)))
    sglc_margin = -eig_high
    res0, resf = (float(np.max(np.abs(frame[k, m:r]))) for k in (0, -1))

    checks = [
        ConditionCheck("pmp_switching", f_i_res <= EQUALITY_TOL, f_i_res),
        ConditionCheck("normality", normality_res <= EQUALITY_TOL,
                       normality_res),
        ConditionCheck("goh", goh_res <= EQUALITY_TOL, goh_res),
        ConditionCheck("hogc", hogc_res <= EQUALITY_TOL, hogc_res),
        ConditionCheck(
            "sglc", sglc_margin >= SGLC_MIN_MARGIN and sym_res <= 1e-12,
            float(-sglc_margin),
            {"margin": float(sglc_margin), "eig_low": float(eig_low),
             "eig_high": float(eig_high), "symmetry_residual": float(sym_res)}),
        ConditionCheck("s_membership", f0i_res <= EQUALITY_TOL, f0i_res),
        ConditionCheck("feedback_consistency", feedback_res <= EQUALITY_TOL,
                       feedback_res),
        ConditionCheck("transversality", max(res0, resf) <= EQUALITY_TOL,
                       max(res0, resf),
                       {"initial": res0, "final": resf}),
    ]
    return ConditionReport(tuple(checks), float(sglc_margin))


def dubins_initial_covector(system: MatrixGroupSystem) -> np.ndarray:
    """The unique covector annihilating {A_i, [A_i,A_j], [A0,A_i]} with
    <p0, A0> = 1, represented in the span of the full algebra basis."""
    basis = system.algebra_basis
    # everything except the drift, against the whole basis
    rows = pairing(basis[:-1], basis)
    # the basis has rank n (frame_basis_rank), so the rows' null space is
    # one line, not orthogonal to the drift
    coeff = np.linalg.svd(rows)[2][-1]
    p0 = np.tensordot(coeff, basis, 1)
    return p0 / pairing(p0, system.drift)


def trajectory_to_csv(trajectory: ExtremalTrajectory, path) -> None:
    """Emit t, flattened q and p, and condition residuals."""
    system, d = trajectory.system, trajectory.system.d
    header = (["t"] + [f"{x}_{i}{j}" for x in "qp" for i in range(d)
                       for j in range(d)]
              + [f"F_{i + 1}" for i in range(system.m)]
              + ["F0_minus_1", "hogc"])
    frame = pairing(trajectory.p, system.algebra_basis)
    rows = np.concatenate([
        trajectory.grid[:, None], trajectory.q.reshape(len(frame), -1),
        trajectory.p.reshape(len(frame), -1), frame[:, :system.m],
        frame[:, -1:] - 1.0,
        np.max(np.abs(frame[:, :system.R]), axis=1)[:, None]], axis=1)
    write_csv(path, header, rows)
