"""Empirical falsification of local time-optimality.

The reference arc is the drift orbit with control u = 0. Competitors
alternate between needle variations, which realize displacements inside
the controlled-algebra orbit with a piecewise-constant word control of
size 1/eps on a window of 2 eps^2, and band-limited random controls. A
needle's states are exact products of piece exponentials; the bands run
as one stacked commutator-free Magnus flow of exact exponentials. Each
competitor's earliest arrival at the target manifold is recorded, and an
arrival strictly earlier than the reference horizon is a counterexample.
Competitors are scored in fixed blocks, each state compared with the
reference at its own time. Both scores read the third-order head of each
state's logarithm and its certified remainder bound first, and take the
exact series logarithm only of the states the bound cannot decide: the
arrival test of a state that may meet the target, and the graph distance
of the samples that may hold a member's largest distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chart import GroupChart
from .extremal import ExtremalTrajectory, reference_flow, require_finite
from .numerics import log_head, plane_exp, time_grid, write_csv
# the tracer in bench/ times the shared log under this name
from .numerics import series_log as _quick_log
from .systems import MatrixGroupSystem

# cos/sin mode pairs of a band-limited competitor
_BAND_MODES = 4
# competitors scored together: blocks of 16 ran no faster and held more
# states at once
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


def needle_variation(s_bar: float, t_vec, eps: float, horizon: float, m: int,
                     t_bar=None) -> NeedleVariation:
    """Build a needle variation; the window must fit inside the horizon."""
    t_vec = np.asarray(t_vec, dtype=float)
    if t_bar is None:
        t_bar = t_vec.copy()
    else:
        t_bar = np.asarray(t_bar, dtype=float)
    if s_bar + 2.0 * eps ** 2 > horizon + 1e-12:
        raise ValueError("needle window exceeds the horizon")
    return NeedleVariation(float(s_bar), t_vec, float(eps), t_bar,
                           tuple(k % m for k in range(t_vec.size)), m)


@dataclass
class FalsificationReport:
    n_samples: int
    min_arrival: float
    radius: float
    horizon: float
    verdict: str
    records: list = field(default_factory=list)
    witness: dict | None = None
    band_group_residual: float | None = None   # see _band_flow

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
            "band_group_residual": self.band_group_residual,
            "records": self.records,
        }


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
        # |x_i(log) - x_i(head)| <= ||row i|| ||log - head||_F
        self._row_norms = np.linalg.norm(chart.b_pinv[chart.R:], axis=1)

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

    def arrival_time(self, times: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Earliest sample time at which each member meets the target, inf
        for a member that never does: ``states`` is an (S, n, d, d) block of
        members sampled at ``times`` (S, n), or (n,) shared by all, in any
        order; returns (S,) times.

        A state whose log head (`log_head`) puts a lower bound above
        TARGET_TOL on some annihilator coordinate does not arrive, and one
        outside the series' radius neither; only the rest take the exact
        path of `residual`."""
        head, bound = log_head(self.q_f_inv @ states)
        x = head.reshape(*bound.shape, -1) @ self.b_pinv[self.R:].T
        lower = np.max(np.abs(x) - self._row_norms * bound[..., None],
                       axis=-1)
        undecided = np.isfinite(bound) & ~(lower > TARGET_TOL)
        hit = np.zeros(bound.shape, dtype=bool)
        hit[undecided] = self.residual(states[undecided]) <= TARGET_TOL
        return np.min(np.where(hit, times, np.inf), axis=1)


def graph_distance(rel: np.ndarray, b_pinv: np.ndarray) -> np.ndarray:
    """Max over samples of the left-invariant chart distance to the reference.

    ``rel`` is an (S, n, d, d) block of ref(t)^-1 q(t), each member's state
    relative to the reference at the state's own sample time t. ``b_pinv``
    maps a flattened algebra element to its chart components at the origin
    (``GroupChart.b_pinv``). Returns (S,) distances, inf for a member that
    leaves the log radius LOG_RADIUS of the reference.

    The log head of each sample (`log_head`) and its bound, times
    ||b_pinv||_2, bracket the sample's distance. Only the samples whose
    upper end reaches the member's largest lower end take the exact series
    log, and the member's distance is their largest: every other sample
    lies below it.
    """
    far = np.linalg.norm(rel - np.eye(rel.shape[-1]),
                         axis=(2, 3)) >= LOG_RADIUS
    near = ~np.any(far, axis=1)
    out = np.full(len(rel), np.inf)
    if np.any(near):
        rel = rel[near]
        head, bound = log_head(rel)
        size = np.linalg.norm(head.reshape(*bound.shape, -1) @ b_pinv.T,
                              axis=2)
        reach = np.linalg.norm(b_pinv, 2) * bound
        member, sample = np.nonzero(
            size + reach >= np.max(size - reach, axis=1, keepdims=True))
        x = _quick_log(rel[member, sample]).reshape(len(member), -1)
        dist = np.full(len(rel), -np.inf)
        np.maximum.at(dist, member, np.linalg.norm(x @ b_pinv.T, axis=1))
        out[near] = dist
    return out


@dataclass(frozen=True)
class _Competitor:
    """One sampled competitor: a needle, or a band that plays the cos/sin
    modes of the horizon with coefficients ``coeff`` (2 _BAND_MODES, m)."""

    family: str
    seed: list
    needle: NeedleVariation | None
    coeff: np.ndarray | None


def _sample_competitors(system: MatrixGroupSystem, t_hat: float,
                        scan_horizon: float, n_samples: int, radius: float,
                        seed: int) -> list[_Competitor]:
    """Draw the competitors in order, needles and bands alternating, each
    from its own SeedSequence child. At radius 0 every competitor is a
    needle of length 0: the reference itself."""
    t_bar = 0.05 * np.ones(system.R)
    out = []
    for idx, child in enumerate(np.random.SeedSequence(seed).spawn(n_samples)):
        rng = np.random.default_rng(child)
        needle = coeff = None
        if idx % 2 == 0 or radius == 0.0:
            eps = radius * rng.uniform(0.3, 1.0)
            s_bar = rng.uniform(0.0, t_hat - 2.0 * eps ** 2)
            t_vec = t_bar + 0.3 * t_bar[0] * rng.standard_normal(system.R)
            needle = needle_variation(s_bar, t_vec, eps, scan_horizon,
                                      system.m, t_bar=t_bar)
        else:
            coeff = radius * rng.standard_normal((2 * _BAND_MODES, system.m))
            coeff /= max(1.0, np.linalg.norm(coeff))
        out.append(_Competitor("band" if needle is None else "needle",
                               [int(v) for v in child.spawn_key], needle,
                               coeff))
    return out


def _needle_exponentials(system: MatrixGroupSystem,
                         needles: list[NeedleVariation]) -> np.ndarray:
    """exp(s_bar A0), exp(h A0) and the 2r piece exponentials
    E_j = exp(h A0 + a_j A_{c_j}) of each needle, h = eps^2 / r the piece
    length and a_j the control integral over piece j, in the order the
    overlay plays them: one stacked plane_exp, (S, 2r + 2, d, d). Every
    generator acts on the three coordinates 0, 1 and c_j + 1 only, so it is
    a single-plane generator and the closed form is exact."""
    a0 = system.drift
    controlled = np.array(system.controlled)
    gens = []
    for needle in needles:
        h = needle.eps ** 2 / len(needle.channels)
        channels = list(needle.channels) + list(needle.channels[::-1])
        a = needle.eps * np.concatenate([needle.t_vec, -needle.t_bar[::-1]])
        gens.append(np.concatenate([[needle.s_bar * a0, h * a0],
                                    h * a0 + a[:, None, None]
                                    * controlled[channels]]))
    return plane_exp(np.array(gens))


def _needle_samples(needles: list[NeedleVariation], exps: np.ndarray,
                    grid: np.ndarray, ref: np.ndarray, ref_inv: np.ndarray,
                    q0: np.ndarray):
    """Sample times (S, n), states q (S, n, d, d) and ref^-1 q of a block of
    needles with their ``_needle_exponentials``, on the base grid plus the
    2r + 1 piece boundaries s_bar + k h of each window. On its window a
    needle is q0 exp(s_bar A0) E_1 ... E_k against the reference
    q0 exp(s_bar A0) exp(k h A0); after it, Y ref(t) with
    Y = q(t_end) ref(t_end)^-1; a grid time inside the window samples the
    window start instead."""
    s_bar = np.array([needle.s_bar for needle in needles])[:, None]
    h = np.array([needle.eps ** 2 / len(needle.channels)
                  for needle in needles])[:, None]
    start = q0 @ exps[:, 0]
    q_win, ref_win = [start], [start]
    for k in range(2, exps.shape[1]):
        q_win.append(q_win[-1] @ exps[:, k])
        ref_win.append(ref_win[-1] @ exps[:, 1])
    q_win = np.stack(q_win, axis=1)
    ref_win_inv = np.linalg.inv(np.stack(ref_win, axis=1))
    win_times = s_bar + h * np.arange(q_win.shape[1])
    before = grid < s_bar
    outside = (before | (grid > win_times[:, -1:]))[..., None, None]
    shift = q_win[:, -1:] @ ref_win_inv[:, -1:]
    q_grid = np.where(outside, np.where(before[..., None, None], ref,
                                        shift @ ref), q_win[:, :1])
    rel_grid = np.where(outside, ref_inv, ref_win_inv[:, :1]) @ q_grid
    return (np.concatenate([np.where(outside[..., 0, 0], grid, s_bar),
                            win_times], axis=1),
            np.concatenate([q_grid, q_win], axis=1),
            np.concatenate([rel_grid, ref_win_inv @ q_win], axis=1))


def _band_flow(system: MatrixGroupSystem, coeff: np.ndarray, t_hat: float,
               q0: np.ndarray, grid: np.ndarray):
    """q' = q (A0 + sum u_i A_i), q(0) = q0, for bands with coefficients
    ``coeff`` (B, 2 _BAND_MODES, m): the (T, B, d, d) flow on the grid by
    the fourth-order commutator-free Magnus step q <- q exp(h (w1 A(t1) +
    w2 A(t2))) exp(h (w2 A(t1) + w1 A(t2))) at the Gauss nodes t1,2 = t +
    (1/2 -+ r) h, w1,2 = 1/4 +- r, r = sqrt(3)/6 (Blanes & Moan, Appl.
    Numer. Math. 56, 2006). Each factor is single-plane, so an exact
    `plane_exp`, formed one step at a time. Also returns the drift off the
    group, the largest `group_residual` of the last row before
    `project_to_group` guards it."""
    h, r = np.diff(grid), np.sqrt(3.0) / 6.0
    nodes = grid[:-1, None] + (0.5 + np.array([-r, r])) * h[:, None]
    u = np.zeros((*nodes.shape, len(coeff), system.m))
    for k in range(_BAND_MODES):
        phase = (2.0 * np.pi * (k + 1) * nodes / t_hat)[..., None, None]
        u += coeff[:, 2 * k] * np.cos(phase)
        u += coeff[:, 2 * k + 1] * np.sin(phase)
    controlled = np.array(system.controlled)
    out = np.empty((grid.size, len(coeff), *q0.shape))
    out[0] = q = q0
    weights = 0.25 + np.array([[r, -r], [-r, r]])
    for k, step in enumerate(h):
        a = system.drift + np.tensordot(u[k], controlled, 1)
        factors = plane_exp(step * np.tensordot(weights, a, 1))
        out[k + 1] = q = q @ factors[0] @ factors[1]
    residual = float(np.max(system.group_residual(out[-1])))
    out[-1] = system.project_to_group(out[-1])
    return out, residual


def competitor_sweep(system: MatrixGroupSystem, extremal: ExtremalTrajectory,
                     target: TargetSpec, n_samples: int = 200,
                     radius: float = 0.1, seed: int = 0,
                     dt: float = 0.02) -> FalsificationReport:
    """Sample needle and band competitors and scan for early arrival.

    Unreachable samples are recorded as non-competing; the verdict is
    "refuted" only when an admissible competitor arrives earlier than the
    reference horizon minus the time tolerance. Raises LinAlgError where
    the arc is not finite.
    """
    require_finite(extremal)
    t_hat = extremal.horizon
    q0 = extremal.q[0]
    scan_horizon = t_hat * (1.0 + HORIZON_PAD)
    grid = np.union1d(time_grid(scan_horizon, dt), [t_hat])
    ref = q0 @ reference_flow(system, grid)
    ref_inv = np.linalg.inv(ref)
    competitors = _sample_competitors(system, t_hat, scan_horizon,
                                      n_samples, radius, seed)
    needles = [i for i, c in enumerate(competitors) if c.needle is not None]
    bands = [i for i, c in enumerate(competitors) if c.coeff is not None]
    arrivals = np.full(n_samples, np.inf)
    dists = np.full(n_samples, np.inf)

    def score(block, times, states, rel):
        arrivals[block] = target.arrival_time(times, states)
        dists[block] = graph_distance(rel, target.b_pinv)

    # memory stays flat: one block's needle states are alive at a time
    if needles:
        members = [competitors[i].needle for i in needles]
        exps = _needle_exponentials(system, members)
        for lo in range(0, len(needles), _SCORE_BLOCK):
            hi = lo + _SCORE_BLOCK
            score(needles[lo:hi], *_needle_samples(
                members[lo:hi], exps[lo:hi], grid, ref, ref_inv, q0))
    band_residual = None
    if bands:
        flow, band_residual = _band_flow(
            system, np.array([competitors[i].coeff for i in bands]), t_hat,
            q0, grid)
        for lo in range(0, len(bands), _SCORE_BLOCK):
            states = flow[:, lo:lo + _SCORE_BLOCK].swapaxes(0, 1)
            score(bands[lo:lo + _SCORE_BLOCK], grid, states, ref_inv @ states)

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
        horizon=t_hat, verdict=verdict, records=records, witness=witness,
        band_group_residual=band_residual)


def report_to_csv(report: FalsificationReport, path) -> None:
    columns = ["sample", "family", "arrival", "graph_distance"]
    write_csv(path, columns, ([r[c] for c in columns] for r in report.records))
