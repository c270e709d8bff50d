"""Empirical falsification of local time-optimality.

The reference arc is the drift orbit with control u = 0. Competitor
trajectories are sampled from three families: needle-like control
variations realizing prescribed displacements inside the
controlled-algebra orbit, band-limited random control perturbations, and
"retimed" copies of the reference control. Retiming the zero control
leaves it zero, so a retimed competitor integrates the reference arc
itself; the family keeps its label and its records. Competitors whose
grids have the same length are integrated together as one stacked RK4
flow; each competitor's earliest arrival at the target manifold is
recorded, and an arrival strictly earlier than the reference horizon is
a counterexample witness. Each flow is scored in fixed blocks of
members: arrival and graph distance each take one exact series
logarithm of a whole block's states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .chart import GroupChart, dubins_adapted_chart
from .extremal import ExtremalTrajectory, reference_flow
# the tracer in bench/ times the shared log under this name
from .numerics import rk4_flow, series_log as _quick_log
from .systems import MatrixGroupSystem

# cos/sin mode pairs of a band-limited competitor
_BAND_MODES = 4
# members of a stacked flow scored together, with one series log per
# block: blocks of 16 ran no faster and held more states at once
_SCORE_BLOCK = 8
# a competitor arriving this much before the reference horizon refutes it
TIME_TOLERANCE = 1e-6
# the competitors are scanned this fraction of the horizon past it
HORIZON_PAD = 0.1
# largest annihilator coordinate of q_f^-1 q at which q meets the target
TARGET_TOL = 1e-6
# largest ||g - I|| at which the arrival test and the graph distance take
# the series log of g; a state farther out counts as not arriving, or as
# off the reference
LOG_RADIUS = 0.9


@dataclass
class NeedleVariation:
    """High-amplitude short-time overlay realizing a bracket displacement.

    The overlay compresses a piecewise-constant word control (R pieces
    realizing exp(t_R f_{i_R}) o ... o exp(t_1 f_1), then the reversal of
    the base word) into the window [s_bar, s_bar + 2 eps^2], with
    amplitude scaled by 1/eps.
    """

    s_bar: float
    t_vec: np.ndarray
    eps: float
    t_bar: np.ndarray
    channels: tuple
    m: int

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

    def piece_boundaries(self) -> np.ndarray:
        r = len(self.channels)
        local = np.linspace(0.0, 2.0, 2 * r + 1)
        return self.s_bar + local * self.eps ** 2


def needle_variation(s_bar: float, t_vec, eps: float, horizon: float, m: int,
                     t_bar=None, channels=None) -> NeedleVariation:
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
    return NeedleVariation(float(s_bar), t_vec, float(eps), t_bar,
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
    needle = needle_variation(0.0, t_vec, eps_grid[0], horizon=np.inf,
                              m=system.m, t_bar=t_bar)
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


def _integration_grid(horizon: float, dt: float, include=()) -> np.ndarray:
    grid = np.unique(np.concatenate([
        np.linspace(0.0, horizon, max(int(round(horizon / dt)), 8) + 1),
        np.asarray(include, dtype=float)]))
    return grid[grid <= horizon + 1e-12]


def _needle_grid(base: np.ndarray, horizon: float,
                 needle: NeedleVariation) -> np.ndarray:
    """The base grid with five points on each piece of the needle window."""
    bounds = needle.piece_boundaries()
    pieces = [np.linspace(a, b, 5) for a, b in zip(bounds[:-1], bounds[1:])]
    grid = np.unique(np.concatenate([base] + pieces))
    return grid[grid <= horizon + 1e-12]


class TargetSpec:
    """Arrival test against the controlled-algebra orbit through q_f.

    Membership is measured through the annihilator coordinates (indices
    above R) of the adapted chart centered at q_f; a state q with
    ||q_f^-1 q - I|| >= LOG_RADIUS is treated as non-arriving.
    """

    def __init__(self, q_f: np.ndarray, chart: GroupChart):
        self.q_f_inv = np.linalg.inv(q_f)
        self.R = chart.R
        self.b_pinv = chart.b_pinv

    def residual(self, q: np.ndarray):
        """Largest annihilator coordinate of q_f^-1 q (inf outside the log
        radius): a float for one matrix, an array of the leading shape for a
        (..., d, d) stack."""
        rel = self.q_f_inv @ np.asarray(q, dtype=float)
        flat = rel.reshape(-1, *rel.shape[-2:])
        out = np.full(flat.shape[0], np.inf)
        near = np.linalg.norm(flat - np.eye(flat.shape[-1]),
                              axis=(1, 2)) < LOG_RADIUS
        if np.any(near):
            logs = _quick_log(flat[near]).reshape(-1, self.b_pinv.shape[1])
            x = logs @ self.b_pinv.T
            out[near] = np.max(np.abs(x[:, self.R:]), axis=1)
        return float(out[0]) if rel.ndim == 2 else out.reshape(rel.shape[:-2])

    def arrival_time(self, grid: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Earliest grid time at which each member meets the target, inf for
        a member that never does: ``states`` is an (S, T, d, d) block of
        members on the (S, T) ``grid``; returns (S,) times."""
        hit = self.residual(states) <= TARGET_TOL
        first = grid[np.arange(len(grid)), np.argmax(hit, axis=1)]
        return np.where(np.any(hit, axis=1), first, np.inf)


def graph_distance(grid: np.ndarray, states: np.ndarray, ref_grid: np.ndarray,
                   ref_inv: np.ndarray, b_pinv: np.ndarray) -> np.ndarray:
    """Max over time of the left-invariant chart distance to the reference.

    ``states`` is an (S, T, d, d) block of members on the (S, T) ``grid``;
    ``ref_inv`` holds the inverses of the reference states on
    ``ref_grid``. ``b_pinv`` maps a flattened algebra element to its chart
    components at the origin (``GroupChart.b_pinv``). Each state is
    compared with the reference at the nearest reference grid time (the
    earlier one on a tie), so the reference is held at its endpoints
    outside its own support. Returns (S,) distances, inf for a member that
    leaves the log radius LOG_RADIUS of the reference.
    """
    k = np.clip(np.searchsorted(ref_grid, grid), 1, len(ref_grid) - 1)
    k = k - (grid - ref_grid[k - 1] <= ref_grid[k] - grid)
    rel = ref_inv[k] @ states
    far = np.linalg.norm(rel - np.eye(rel.shape[-1]),
                         axis=(2, 3)) >= LOG_RADIUS
    near = ~np.any(far, axis=1)
    out = np.full(len(rel), np.inf)
    if np.any(near):
        x = _quick_log(rel[near]).reshape(*far[near].shape, -1) @ b_pinv.T
        out[near] = np.max(np.linalg.norm(x, axis=2), axis=1)
    return out


@dataclass(frozen=True)
class _Competitor:
    """One sampled competitor: its grid and its control. A needle plays its
    overlay; a band plays the cos/sin modes of the horizon with
    coefficients ``coeff`` (2 _BAND_MODES, m). With neither set (a
    retimed copy, or radius 0) the control is zero: the reference."""

    family: str
    seed: list
    grid: np.ndarray
    needle: NeedleVariation | None
    coeff: np.ndarray | None


def _sample_competitors(system: MatrixGroupSystem, t_hat: float,
                        scan_horizon: float, base_grid: np.ndarray,
                        n_samples: int, radius: float,
                        seed: int) -> list[_Competitor]:
    """Draw the competitors in order, each from its own SeedSequence child.
    A needle refines ``base_grid`` on its window; every other competitor
    shares ``base_grid`` itself."""
    t_bar = 0.05 * np.ones(system.R)
    out = []
    for idx, child in enumerate(np.random.SeedSequence(seed).spawn(n_samples)):
        rng = np.random.default_rng(child)
        family = ("needle", "band", "retimed")[idx % 3]
        needle = coeff = None
        if family == "needle" or radius == 0.0:
            eps = radius * rng.uniform(0.3, 1.0)
            if radius != 0.0:
                s_bar = rng.uniform(0.0, t_hat - 2.0 * eps ** 2)
                t_vec = t_bar + 0.3 * t_bar[0] * rng.standard_normal(system.R)
                needle = needle_variation(s_bar, t_vec, eps, scan_horizon,
                                          system.m, t_bar=t_bar)
        elif family == "band":
            coeff = radius * rng.standard_normal((2 * _BAND_MODES, system.m))
            coeff /= max(1.0, np.linalg.norm(coeff))
        grid = base_grid if needle is None or needle.eps == 0.0 else \
            _needle_grid(base_grid, scan_horizon, needle)
        out.append(_Competitor(family, [int(v) for v in child.spawn_key],
                               grid, needle, coeff))
    return out


def _needle_overlays(s, s_bar, eps, t_vec, t_bar, channels, m):
    """NeedleVariation.overlay row by row: needle k at its own time s[k]."""
    r = channels.shape[1]
    out = np.zeros((s.size, m))
    local = s - s_bar
    inside = (local >= 0.0) & (local <= 2.0 * eps ** 2)
    sig = local / eps ** 2
    first = inside & (sig >= 0.0) & (sig <= 1.0)
    rows = np.flatnonzero(first)
    k = np.minimum((sig[rows] * r).astype(int), r - 1)
    out[rows, channels[rows, k]] = r * t_vec[rows, k] / eps[rows]
    rows = np.flatnonzero(inside & ~first & (sig <= 2.0))
    k = r - 1 - np.minimum(((sig[rows] - 1.0) * r).astype(int), r - 1)
    out[rows, channels[rows, k]] = -r * t_bar[rows, k] / eps[rows]
    return out


def _stacked_control(members: list[_Competitor], t_hat: float, m: int):
    """The members' controls as one function: (S,) times -> (S, m)."""
    needles = [i for i, c in enumerate(members) if c.needle is not None]
    bands = [i for i, c in enumerate(members) if c.coeff is not None]
    coeff = np.array([members[i].coeff for i in bands])
    needle_args = [np.array([getattr(members[i].needle, key) for i in needles])
                   for key in ("s_bar", "eps", "t_vec", "t_bar", "channels")]

    def control(t):
        out = np.zeros((t.size, m))
        if bands:
            tb = t[bands, None]
            for k in range(_BAND_MODES):
                phase = 2.0 * np.pi * (k + 1) * tb / t_hat
                out[bands] += coeff[:, 2 * k] * np.cos(phase)
                out[bands] += coeff[:, 2 * k + 1] * np.sin(phase)
        if needles:
            out[needles] += _needle_overlays(t[needles], *needle_args, m)
        return out

    return control


def _stacked_flows(system: MatrixGroupSystem, members: list[_Competitor],
                   t_hat: float, q0: np.ndarray) -> list[np.ndarray]:
    """q' = q (A0 + sum u_i A_i), q(0) = q0, for members whose grids have
    one length, as one RK4 flow of the (S, d, d) stack: the stack at each
    grid index."""
    control = _stacked_control(members, t_hat, system.m)
    a0 = system.drift
    controlled = np.array(system.controlled)

    def rhs(t, y):
        return y @ (a0 + np.tensordot(control(t), controlled, 1))

    grid = np.stack([c.grid for c in members], axis=1)
    y0 = np.repeat(q0[None], len(members), axis=0)
    return rk4_flow(rhs, grid, y0, lambda t, y: system.project_to_group(y))


def competitor_sweep(system: MatrixGroupSystem, extremal: ExtremalTrajectory,
                     target: TargetSpec, n_samples: int = 200,
                     radius: float = 0.1, seed: int = 0,
                     dt: float = 0.02) -> FalsificationReport:
    """Sample competitors from the three families and scan for early arrival.

    Unreachable samples are recorded as non-competing; the verdict is
    "refuted" only when an admissible competitor arrives earlier than the
    reference horizon minus the time tolerance.
    """
    t_hat = extremal.horizon
    q0 = extremal.q[0]
    scan_horizon = t_hat * (1.0 + HORIZON_PAD)
    ref_grid = _integration_grid(scan_horizon, dt, include=(t_hat,))
    ref_inv = np.linalg.inv(q0 @ reference_flow(system, ref_grid))
    competitors = _sample_competitors(system, t_hat, scan_horizon, ref_grid,
                                      n_samples, radius, seed)

    # one stacked flow per grid length: the base grid (band, retimed,
    # radius 0) and, generically, one refined length for the needles
    by_length: dict = {}
    for idx, comp in enumerate(competitors):
        by_length.setdefault(comp.grid.size, []).append(idx)
    arrivals = np.full(n_samples, np.inf)
    dists = np.full(n_samples, np.inf)
    for idxs in by_length.values():
        # memory stays flat: one group's flow and one block's states are
        # alive at a time
        members = [competitors[i] for i in idxs]
        flow = _stacked_flows(system, members, t_hat, q0)
        for lo in range(0, len(idxs), _SCORE_BLOCK):
            block = idxs[lo:lo + _SCORE_BLOCK]
            grid = np.array([competitors[i].grid for i in block])
            states = np.stack([y[lo:lo + _SCORE_BLOCK] for y in flow], axis=1)
            arrivals[block] = target.arrival_time(grid, states)
            dists[block] = graph_distance(grid, states, ref_grid, ref_inv,
                                          target.b_pinv)
        del flow

    records = []
    min_arrival = np.inf
    witness = None
    for idx, comp in enumerate(competitors):
        arrival, dist = arrivals[idx], dists[idx]
        record = {
            "sample": idx,
            "family": comp.family,
            "seed": comp.seed,
            "arrival": float(arrival) if np.isfinite(arrival) else None,
            "graph_distance": float(dist) if np.isfinite(dist) else None,
        }
        records.append(record)
        admissible = np.isfinite(dist) and (radius == 0.0 or dist <= 10 * radius)
        if np.isfinite(arrival) and admissible and arrival < min_arrival:
            min_arrival = arrival
            if arrival < t_hat - TIME_TOLERANCE:
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
