"""What every stage shares: classical RK4, damped Newton and the exact
series logarithm of a group element near the identity."""

from __future__ import annotations

import numpy as np

_EPS = np.finfo(float).eps


def rk4_flow(f, grid, y0: np.ndarray, after_step=None) -> list[np.ndarray]:
    """Classical RK4 for y' = f(t, y) on a strictly increasing (T,) grid.

    Returns the states on the grid, y0 first; a stacked y0 steps all its
    members at once. after_step(t, y), when given, sees each new state at
    its grid time and returns the state to keep (a projection) or raises
    (a monitor).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a strictly increasing (T,) array")
    y = y0
    out = [y]
    for k in range(grid.size - 1):
        t = grid[k]
        h = grid[k + 1] - t
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if after_step is not None:
            y = after_step(grid[k + 1], y)
        out.append(y)
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


def series_log(mat: np.ndarray) -> np.ndarray:
    """Principal logarithm of a matrix or of a (..., d, d) stack of them.

    log g = 2 artanh(Z) with Z = (g - I)(g + I)^-1, the odd power series
    summed until its terms fall below roundoff. The series converges when
    every eigenvalue of g has positive real part, as it has for
    ||g - I|| < 1; the callers stay inside radius 0.9.
    """
    eye = np.eye(mat.shape[-1])
    z = np.linalg.solve(mat + eye, mat - eye)
    z2 = z @ z
    power = z
    out = z
    for k in range(3, 2000, 2):
        power = power @ z2
        term = power / k
        out = out + term
        if np.max(np.abs(term)) <= _EPS * np.max(np.abs(out)):
            return 2.0 * out
    raise np.linalg.LinAlgError("matrix logarithm series did not converge")
