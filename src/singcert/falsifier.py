"""Empirical falsification of local time-optimality.

Competitor trajectories are sampled from three families: needle-like
control variations realizing prescribed displacements inside the
controlled-algebra orbit, band-limited random control perturbations, and
re-timed copies of the reference control. Each competitor is integrated
and its earliest arrival at the target manifold is recorded; an arrival
strictly earlier than the reference horizon is a counterexample witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .chart import GroupChart, dubins_adapted_chart
from .controls import CallableControl
from .extremal import ExtremalTrajectory, reference_flow
from .systems import MatrixGroupSystem


@dataclass
class NeedleVariation:
    """High-amplitude short-time overlay realizing a bracket displacement.

    The overlay compresses a piecewise-constant word control (R pieces
    realizing exp(t_R f_{i_R}) o ... o exp(t_1 f_1), then the reversal of
    the base word) into the window [s_bar, s_bar + 2 eps^2], with
    amplitude scaled by 1/eps.
    """

    u_hat: object
    s_bar: float
    t_vec: np.ndarray
    eps: float
    t_bar: np.ndarray
    channels: tuple
    m: int

    @property
    def window(self):
        return (self.s_bar, self.s_bar + 2.0 * self.eps ** 2)

    def overlay_base(self, s: float) -> np.ndarray:
        """The unscaled word control nu_t on [0, 2]."""
        r = len(self.channels)
        out = np.zeros(self.m)
        if 0.0 <= s <= 1.0:
            k = min(int(s * r), r - 1)
            out[self.channels[k]] = r * self.t_vec[k]
        elif s <= 2.0:
            k = min(int((s - 1.0) * r), r - 1)
            out[self.channels[r - 1 - k]] = -r * self.t_bar[r - 1 - k]
        return out

    def overlay(self, s: float) -> np.ndarray:
        """nu_{t,eps}(s) = eps^-1 nu_t(s eps^-2), supported on the window."""
        if self.eps == 0.0:
            return np.zeros(self.m)
        local = s - self.s_bar
        if local < 0.0 or local > 2.0 * self.eps ** 2:
            return np.zeros(self.m)
        return self.overlay_base(local / self.eps ** 2) / self.eps

    def __call__(self, s: float) -> np.ndarray:
        return np.asarray(self.u_hat(s), dtype=float) + self.overlay(s)

    def piece_boundaries(self) -> np.ndarray:
        r = len(self.channels)
        local = np.linspace(0.0, 2.0, 2 * r + 1)
        return self.s_bar + local * self.eps ** 2


def needle_variation(u_hat, s_bar: float, t_vec, eps: float, horizon: float,
                     m: int, t_bar=None, channels=None) -> NeedleVariation:
    """Build a needle variation; the window must fit inside the horizon."""
    t_vec = np.asarray(t_vec, dtype=float)
    if t_bar is None:
        t_bar = t_vec.copy()
    else:
        t_bar = np.asarray(t_bar, dtype=float)
    if channels is None:
        channels = tuple(k % m for k in range(t_vec.size))
    if s_bar + 2.0 * eps ** 2 > horizon + 1e-12:
        raise ValueError("needle window exceeds the horizon")
    return NeedleVariation(u_hat, float(s_bar), t_vec, float(eps), t_bar,
                           tuple(channels), m)


def driftless_endpoint(system: MatrixGroupSystem, needle: NeedleVariation,
                       eps: float | None = None) -> np.ndarray:
    """Endpoint of zeta' = zeta sum nu_i A_i under the (scaled) overlay.

    Piecewise-constant controls integrate exactly as a product of matrix
    exponentials; eps = None integrates the unscaled base word on [0, 2].
    """
    r = len(needle.channels)
    g = np.eye(system.d)
    scale = 1.0 if eps is None else eps
    for k in range(r):
        g = g @ expm(scale * needle.t_vec[k] * system.controlled[needle.channels[k]])
    for k in range(r - 1, -1, -1):
        g = g @ expm(-scale * needle.t_bar[k] * system.controlled[needle.channels[k]])
    return g


def _quick_log(mat: np.ndarray, terms: int = 12) -> np.ndarray:
    """Matrix logarithm by power series, valid near the identity."""
    x = mat - np.eye(mat.shape[0])
    out = np.zeros_like(x)
    power = np.eye(mat.shape[0])
    for k in range(1, terms + 1):
        power = power @ x
        out = out + ((-1.0) ** (k + 1) / k) * power
    return out


def driftless_scaling_check(system: MatrixGroupSystem, t_vec,
                            eps_grid=None, t_bar=None) -> dict:
    """Fitted order of the amplitude/time scaling of the word flow.

    The displacement of the driftless flow under the compressed overlay
    should equal eps times the base displacement up to o(eps); the check
    fits ||S(2 eps^2) - eps Z|| ~ C eps^beta and passes for beta >= 1.8.
    """
    if eps_grid is None:
        eps_grid = [0.2, 0.1, 0.05, 0.025]
    eps_grid = sorted(eps_grid, reverse=True)
    if eps_grid[-1] < 1e-3:
        raise ValueError("eps grid below the resolvable scale")
    chart = dubins_adapted_chart(system)
    needle = needle_variation(lambda s: np.zeros(system.m), 0.0, t_vec,
                              eps_grid[0], horizon=np.inf, m=system.m,
                              t_bar=t_bar)
    # eps-linear coefficient of the word displacement: the weighted sum of
    # the generators, expanded in the adapted frame
    lin = sum((needle.t_vec[k] - needle.t_bar[k])
              * system.controlled[needle.channels[k]]
              for k in range(len(needle.channels)))
    base = chart.solve_in_frame(np.zeros(chart.n), lin)
    rows = []
    for eps in eps_grid:
        end = driftless_endpoint(system, needle, eps=eps)
        x = chart.inverse(end)
        rows.append({"eps": float(eps),
                     "discrepancy": float(np.linalg.norm(x - eps * base))})
    discs = np.array([r["discrepancy"] for r in rows])
    if np.max(discs) <= 1e-12:
        beta = np.inf       # exact scaling, e.g. a single commuting channel
    else:
        mask = discs > 1e-14
        beta = float(np.polyfit(np.log(np.array(eps_grid)[mask]),
                                np.log(discs[mask]), 1)[0])
    return {"beta": beta, "samples": rows, "base_displacement": base,
            "passed": bool(beta >= 1.8)}


@dataclass
class FalsificationReport:
    n_samples: int
    min_arrival: float
    radius: float
    horizon: float
    verdict: str
    records: list = field(default_factory=list)
    witness: dict | None = None

    @property
    def refuted(self) -> bool:
        return self.verdict == "refuted"

    def as_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "min_arrival": (float(self.min_arrival)
                            if np.isfinite(self.min_arrival) else None),
            "radius": float(self.radius),
            "horizon": float(self.horizon),
            "verdict": self.verdict,
            "witness": self.witness,
            "records": self.records,
        }


def _integration_grid(horizon: float, dt: float, needle=None,
                      include=()) -> np.ndarray:
    parts = [np.linspace(0.0, horizon, max(int(round(horizon / dt)), 8) + 1),
             np.asarray(include, dtype=float)]
    if needle is not None and needle.eps > 0.0:
        bounds = needle.piece_boundaries()
        for a, b in zip(bounds[:-1], bounds[1:]):
            parts.append(np.linspace(a, b, 5))
    grid = np.unique(np.concatenate(parts))
    return grid[grid <= horizon + 1e-12]


class TargetSpec:
    """Arrival test against the controlled-algebra orbit through q_f.

    Membership is measured through the annihilator coordinates (indices
    above R) of the adapted chart centered at q_f; states outside the
    chart's logarithm radius are treated as non-arriving.
    """

    def __init__(self, system: MatrixGroupSystem, q_f: np.ndarray,
                 chart: GroupChart, tol: float = 1e-6,
                 log_radius: float = 0.9):
        self.system = system
        self.q_f = q_f
        self.q_f_inv = np.linalg.inv(q_f)
        self.tol = tol
        self.log_radius = log_radius
        self.R = chart.R
        self.b_pinv = chart.b_pinv

    def residual(self, q: np.ndarray) -> float:
        rel = self.q_f_inv @ q
        if np.linalg.norm(rel - np.eye(rel.shape[0])) >= self.log_radius:
            return np.inf
        x = self.b_pinv @ _quick_log(rel).ravel()
        return float(np.max(np.abs(x[self.R:])))

    def arrival_time(self, grid: np.ndarray, states: list) -> float:
        for t, q in zip(grid, states):
            if self.residual(q) <= self.tol:
                return float(t)
        return np.inf


def graph_distance(system: MatrixGroupSystem, grid: np.ndarray, states: list,
                   ref_grid: np.ndarray, ref_states: list,
                   b_pinv: np.ndarray) -> float:
    """Max over time of the left-invariant chart distance to the reference.

    ``b_pinv`` maps a flattened algebra element to its chart components at
    the origin (``GroupChart.b_pinv``). The reference state is held at its
    endpoints outside its own support.
    """
    worst = 0.0
    for t, q in zip(grid, states):
        k = int(np.clip(np.searchsorted(ref_grid, t), 0, len(ref_states) - 1))
        rel = np.linalg.inv(ref_states[k]) @ q
        if np.linalg.norm(rel - np.eye(rel.shape[0])) >= 0.9:
            return np.inf
        worst = max(worst, float(np.linalg.norm(b_pinv @ _quick_log(rel).ravel())))
    return worst


def _integrate(system: MatrixGroupSystem, control, grid: np.ndarray,
               q0: np.ndarray):
    cache = reference_flow(system, control, grid)
    return [q0 @ mk for mk in cache]


def competitor_sweep(system: MatrixGroupSystem, extremal: ExtremalTrajectory,
                     target: TargetSpec, n_samples: int = 200,
                     radius: float = 0.1, seed: int = 0,
                     dt: float = 0.02, time_tolerance: float = 1e-6,
                     horizon_pad: float = 0.1) -> FalsificationReport:
    """Sample competitors from the three families and scan for early arrival.

    Unreachable samples are recorded as non-competing; the verdict is
    "refuted" only when an admissible competitor arrives earlier than the
    reference horizon minus the time tolerance.
    """
    t_hat = extremal.horizon
    q0 = extremal.points[0].q
    u_hat = extremal.u_hat
    scan_horizon = t_hat * (1.0 + horizon_pad)
    ref_grid = _integration_grid(scan_horizon, dt, include=(t_hat,))
    ref_states = _integrate(system, u_hat, ref_grid, q0)
    children = np.random.SeedSequence(seed).spawn(n_samples)

    records = []
    min_arrival = np.inf
    witness = None
    t_bar = 0.05 * np.ones(system.R)
    for idx, child in enumerate(children):
        rng = np.random.default_rng(child)
        family = ("needle", "band", "retimed")[idx % 3]
        needle = None
        if family == "needle" or radius == 0.0:
            eps = radius * rng.uniform(0.3, 1.0)
            if radius == 0.0:
                control = CallableControl(
                    lambda s: np.asarray(u_hat(s), dtype=float), system.m)
            else:
                s_bar = rng.uniform(0.0, t_hat - 2.0 * eps ** 2)
                t_vec = t_bar + 0.3 * t_bar[0] * rng.standard_normal(system.R)
                needle = needle_variation(u_hat, s_bar, t_vec, eps,
                                          scan_horizon, system.m, t_bar=t_bar)
                control = needle
        elif family == "band":
            n_modes = 4
            coeff = radius * rng.standard_normal((2 * n_modes, system.m))
            coeff /= max(1.0, np.linalg.norm(coeff))

            def control_fn(s, coeff=coeff):
                out = np.asarray(u_hat(s), dtype=float).copy()
                for k in range(n_modes):
                    phase = 2.0 * np.pi * (k + 1) * s / t_hat
                    out += coeff[2 * k] * np.cos(phase)
                    out += coeff[2 * k + 1] * np.sin(phase)
                return out

            control = CallableControl(control_fn, system.m)
        else:
            stretch = 1.0 + radius * rng.uniform(-0.1, 0.1)

            def control_fn(s, stretch=stretch):
                return np.asarray(u_hat(min(s / stretch, t_hat)), dtype=float)

            control = CallableControl(control_fn, system.m)

        grid = _integration_grid(scan_horizon, dt, needle, include=(t_hat,))
        states = _integrate(system, control, grid, q0)
        arrival = target.arrival_time(grid, states)
        dist = graph_distance(system, grid, states, ref_grid, ref_states,
                              target.b_pinv)
        record = {
            "sample": idx,
            "family": family,
            "seed": list(int(v) for v in child.spawn_key),
            "arrival": float(arrival) if np.isfinite(arrival) else None,
            "graph_distance": float(dist) if np.isfinite(dist) else None,
        }
        records.append(record)
        admissible = np.isfinite(dist) and (radius == 0.0 or dist <= 10 * radius)
        if np.isfinite(arrival) and admissible and arrival < min_arrival:
            min_arrival = arrival
            if arrival < t_hat - time_tolerance:
                witness = dict(record)
    verdict = "refuted" if witness is not None else "no counterexample"
    return FalsificationReport(
        n_samples=n_samples, min_arrival=min_arrival, radius=radius,
        horizon=t_hat, verdict=verdict, records=records, witness=witness)


def report_to_csv(report: FalsificationReport, path) -> None:
    lines = ["sample,family,arrival,graph_distance"]
    for r in report.records:
        arr = "" if r["arrival"] is None else f"{r['arrival']:.17g}"
        gd = "" if r["graph_distance"] is None else f"{r['graph_distance']:.17g}"
        lines.append(f"{r['sample']},{r['family']},{arr},{gd}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
