"""What every stage shares: classical RK4, damped Newton, the closed-form
exponential of a single-plane generator and the exact series logarithm of
a group element near the identity, with its third-order head and a
certified bound on the head's remainder, so that a caller whose test the
bound already decides takes no series; and the one CSV writer.

RK4 has one owner. `time_grid` holds the rule for a uniform grid (at least
8 steps), `rk4_stage_times` forms the times the stages read, and
`rk4_flow` passes f the row of that table instead of a time, so a flow
whose right-hand side depends on t evaluates it once on the whole table
and indexes it; the flow comes back as one (T, ...) array.

Every generator of the generalized Dubins family, in so(N+1), se(N) and
so(1, N), is a single-plane element X with X^3 = lam X, lam = tr(X^2)/2,
and so is every combination t A_0 + a A_i: it acts on at most three
coordinates, where it is a 3 x 3 matrix of zero trace and determinant.
Its exponential is I + S1(lam) X + S2(lam) X^2 on all three space forms at
once (Gallier & Xu, Int. J. Robotics and Automation 17, 2002); the linear
map ad_A0 obeys the same identity with the lam of A_0.
"""

from __future__ import annotations

import numpy as np

_EPS = np.finfo(float).eps


def rk4_stage_times(grid) -> np.ndarray:
    """The times RK4 reads on a (T,) grid, one triple t_k, t_k + h/2,
    t_k + h per step, h = grid[k+1] - t_k: a flat (3 (T - 1),) array whose
    row i is the time of the stage `rk4_flow` calls f(i, y) at."""
    grid = np.asarray(grid, dtype=float)
    t, h = grid[:-1], np.diff(grid)
    return np.stack([t, t + 0.5 * h, t + h], axis=1).ravel()


def time_grid(horizon: float, dt: float) -> np.ndarray:
    """Uniform grid on [0, horizon] with steps of about dt, and at least 8."""
    return np.linspace(0.0, horizon, max(int(round(horizon / dt)), 8) + 1)


def rk4_flow(f, grid, y0: np.ndarray) -> np.ndarray:
    """Classical RK4 for y' = f(t, y) on a strictly increasing (T,) grid.

    f(i, y) reads the time as row i of `rk4_stage_times(grid)`: step k
    calls it at 3k, 3k + 1 (twice) and 3k + 2. Returns the (T, ...) array
    of the states on the grid, y0 first; a stacked y0 steps all its
    members at once.
    """
    grid = np.asarray(grid, dtype=float)
    steps = np.diff(grid)
    if grid.ndim != 1 or np.any(steps <= 0):
        raise ValueError("grid must be a strictly increasing (T,) array")
    out = np.empty((grid.size, *np.shape(y0)))
    out[0] = y = y0
    for k, h in enumerate(steps):
        k1 = f(3 * k, y)
        k2 = f(3 * k + 1, y + 0.5 * h * k1)
        k3 = f(3 * k + 1, y + 0.5 * h * k2)
        k4 = f(3 * k + 2, y + h * k3)
        out[k + 1] = y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return out


def damped_newton(residual, direction, x: np.ndarray, tol: float,
                  max_iter: int, halvings: int, fail):
    """Newton iteration with step halving on a max-norm residual.

    residual(x) returns the residual array f and direction(x, f) the Newton
    step. A step is taken at the first of `halvings` halvings that lowers
    max|f|; NaN never counts as converged. fail(message) returns the
    exception to raise when no halving lowers max|f| or max_iter steps
    leave it above tol. Returns (x, max|f|, steps taken).
    """
    f = residual(x)
    r = float(np.max(np.abs(f)))
    iters = 0
    while not r <= tol:
        if iters >= max_iter:
            raise fail(f"Newton did not converge (residual {r:.3e})")
        step = direction(x, f)
        damp = 1.0
        for _ in range(halvings):
            cand = x + damp * step
            f_c = residual(cand)
            r_c = float(np.max(np.abs(f_c)))
            if r_c < r:
                x, f, r = cand, f_c, r_c
                break
            damp *= 0.5
        else:
            raise fail("Newton stalled")
        iters += 1
    return x, r, iters


# below this |lam| the Taylor series of S1 and S2, to lam^3, is exact to
# roundoff (the first term left out is lam^4 / 9! < 3e-18)
_TAYLOR_LAM = 1e-3


def plane_exp(x: np.ndarray, lam=None, sq: np.ndarray | None = None
              ) -> np.ndarray:
    """exp x = I + S1(lam) x + S2(lam) x^2 for x with x^3 = lam x, one
    (d, d) matrix or a (..., d, d) stack of them.

    lam, one value per matrix, defaults to tr(x^2)/2, which is the lam of
    a single-plane generator; sq, when given, is x @ x. With r =
    sqrt(|lam|), S1 = sinh(r)/r and S2 = 2 sinh(r/2)^2/r^2 for lam > 0,
    sin in place of sinh for lam < 0: neither cancels. Near lam = 0, where
    both are 0/0, their Taylor series take over.
    """
    x = np.asarray(x, dtype=float)
    if sq is None:
        sq = x @ x
    if lam is None:
        lam = 0.5 * np.trace(sq, axis1=-2, axis2=-1)
    lam = np.asarray(lam, dtype=float)
    small = np.abs(lam) < _TAYLOR_LAM
    r = np.sqrt(np.where(small, 1.0, np.abs(lam)))
    s1 = np.where(small, 1.0 + lam / 6.0 * (1.0 + lam / 20.0
                                            * (1.0 + lam / 42.0)),
                  _sin_or_sinh(r, lam > 0.0) / r)
    half = _sin_or_sinh(0.5 * r, lam > 0.0) / r
    s2 = np.where(small, 0.5 * (1.0 + lam / 12.0 * (1.0 + lam / 30.0
                                                   * (1.0 + lam / 56.0))),
                  2.0 * half * half)
    out = s1[..., None, None] * x
    out += np.eye(x.shape[-1])
    out += s2[..., None, None] * sq
    return out


def _sin_or_sinh(r: np.ndarray, hyperbolic: np.ndarray) -> np.ndarray:
    """sinh(r) where hyperbolic is set, sin(r) elsewhere; each is evaluated
    only where it is taken, so a long rotation never overflows a sinh."""
    return np.where(hyperbolic, np.sinh(np.where(hyperbolic, r, 0.0)),
                    np.sin(np.where(hyperbolic, 0.0, r)))


def log_head(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Third-order head of the logarithm of a (..., d, d) stack, and a
    Frobenius bound on the distance of each head from the exact log.

    With E = g - I and delta = ||E||_F < 1, log g is the Mercator series
    sum_k (-1)^(k+1) E^k / k, and the Frobenius norm is submultiplicative,
    so ||log g - (E - E^2/2 + E^3/3)||_F <= sum_{k>=4} delta^k / k <=
    delta^4 / (4 (1 - delta)) (Higham, Functions of Matrices, SIAM 2008,
    ch. 11). The head costs the two products E E and E^2 E.

    Rounding, to first order in the unit roundoff u: fl(g - I) is off by
    at most u delta, which moves the head by u (delta + delta^2 + delta^3);
    each product of d-term sums is off by d u times the product of the
    norms, d u delta^2 / 2 for E^2 once halved and 2 d u delta^3 / 3 for
    E^3 once thirded; the division by 3 and the two sums add
    u (delta + delta^2 + delta^3). The total is under
    (d + 2) u (delta + delta^2 + delta^3), and the bound adds
    (d + 3) u (1 + delta)^3, whose slack covers the second-order terms.
    The remainder term is taken at the computed delta, off by a few
    d^2 u delta; that moves the tail sum by delta^3 / (1 - delta) times as
    much, which stays under the slack delta^5 / 20 between the tail and
    its bound wherever delta (1 - delta) > 1e-13, and under the rounding
    term's slack below that.

    Returns (head, bound): bound has the leading shape and is inf where
    delta >= 1, where the series does not converge.
    """
    d = mat.shape[-1]
    e = mat - np.eye(d)
    sq = e @ e
    head = sq @ e
    head /= 3.0
    sq *= 0.5
    head -= sq
    head += e
    delta = np.linalg.norm(e, axis=(-2, -1))
    inside = delta < 1.0
    delta = np.where(inside, delta, 0.0)
    bound = (delta ** 4 / (4.0 * (1.0 - delta))
             + (d + 3) * _EPS / 2 * (1.0 + delta) ** 3)
    return head, np.where(inside, bound, np.inf)


def series_log(mat: np.ndarray) -> np.ndarray:
    """Principal logarithm of a matrix or of a (..., d, d) stack of them.

    log g = 2 artanh(Z) with Z = (g - I)(g + I)^-1, the odd power series
    summed until its terms fall below roundoff. The series converges when
    every eigenvalue of g has positive real part, as it has for
    ||g - I|| < 1; the callers stay inside radius 0.9. A series that does
    not converge, overflows to an infinite sum, or cannot start because
    g + I is singular (an eigenvalue at -1) raises LinAlgError, always with
    the same message and no numpy warning.
    """
    diverged = np.linalg.LinAlgError(
        "matrix logarithm series did not converge")
    eye = np.eye(mat.shape[-1])
    try:
        z = np.linalg.solve(mat + eye, mat - eye)
    except np.linalg.LinAlgError:
        raise diverged from None
    with np.errstate(over="ignore", invalid="ignore"):
        z2 = z @ z
        power = out = z
        for k in range(3, 2000, 2):
            power = power @ z2
            term = power / k
            out = out + term
            if np.max(np.abs(term)) <= _EPS * np.max(np.abs(out)):
                if not np.isfinite(out).all():
                    break
                return 2.0 * out
    raise diverged


def write_csv(path, header, rows) -> None:
    """Write the header and one line per row to path: a None cell is
    empty, a str is written as is, and every number is formatted .17g."""
    lines = [",".join(header)] + [
        ",".join("" if v is None else v if isinstance(v, str) else f"{v:.17g}"
                 for v in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
