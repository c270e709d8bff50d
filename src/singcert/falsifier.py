"""Empirical falsification of local time-optimality.

The reference arc is the drift orbit with control u = 0. Competitors
alternate between needle variations, which realize displacements inside
the controlled-algebra orbit with a piecewise-constant word control of
size 1/eps on a window of 2 eps^2, and band-limited random controls. A
needle's states are exact products of piece exponentials; the bands run
as one stacked commutator-free Magnus flow of exact exponentials. Each
competitor's earliest arrival at the target manifold is recorded, and an
arrival strictly earlier than the reference horizon is a counterexample.
The arrival test screens each state by its first column q e0, which
bounds the annihilator coordinates exactly, and takes the series log
only of the states the screen cannot reject. A needle is the reference
before its window and Y ref(t) after it, so only its 2r + 1 window
states are scored one by one; after the window its distance to the
reference is read from log Y through the conjugation by ref(t), a linear
map tabled once per sweep. The graph distance of the windows and bands
reads each state's third-order log head and its certified bound first.
Group elements are inverted in closed form (`MatrixGroupSystem.inverse`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chart import GroupChart
from .extremal import ExtremalTrajectory, reference_flow, require_finite
from .numerics import log_head, plane_exp, plane_series, time_grid, write_csv
# the tracer in bench/ times the shared log under this name
from .numerics import series_log as _quick_log
from .systems import MatrixGroupSystem, ProjectionError

# cos/sin mode pairs of a band-limited competitor
_BAND_MODES = 4
# competitors the report lists by their smallest miss of the target
_NEAREST = 5
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
_EPS = np.finfo(float).eps


@dataclass
class NeedleVariation:
    """High-amplitude short-time overlay realizing a bracket displacement.

    The overlay compresses a piecewise-constant word control (R pieces
    realizing exp(t_R f_{i_R}) o ... o exp(t_1 f_1), then the reversal of
    the base word) into the window [s_bar, s_bar + 2 eps^2], with
    amplitude scaled by 1/eps. With (S,) s_bar and eps and (S, R) t_vec it
    is a stack of needles sharing t_bar, as the sweep holds them.
    """

    s_bar: np.ndarray
    t_vec: np.ndarray
    eps: np.ndarray
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


def needle_variation(s_bar, t_vec, eps, horizon: float, m: int,
                     t_bar=None) -> NeedleVariation:
    """Build a needle variation, or a stack of them; every window must fit
    inside the horizon."""
    s_bar, eps = np.asarray(s_bar, dtype=float), np.asarray(eps, dtype=float)
    t_vec = np.asarray(t_vec, dtype=float)
    if t_bar is None:
        t_bar = t_vec.copy()
    else:
        t_bar = np.asarray(t_bar, dtype=float)
    if np.any(s_bar + 2.0 * eps ** 2 > horizon + 1e-12):
        raise ValueError("needle window exceeds the horizon")
    return NeedleVariation(s_bar, t_vec, eps, t_bar,
                           tuple(k % m for k in range(t_vec.shape[-1])), m)


@dataclass
class FalsificationReport:
    n_samples: int
    min_arrival: float
    radius: float
    horizon: float
    verdict: str
    records: list = field(default_factory=list)   # sweep.csv, not emitted
    witness: dict | None = None
    band_group_residual: float | None = None   # see _band_flow
    tallies: dict = field(default_factory=dict)
    nearest: list = field(default_factory=list)

    @property
    def refuted(self) -> bool:
        return self.verdict == "refuted"

    def as_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "min_arrival": _finite(self.min_arrival),
            "radius": float(self.radius),
            "horizon": float(self.horizon),
            "verdict": self.verdict,
            "witness": self.witness,
            "band_group_residual": self.band_group_residual,
            "tallies": self.tallies,
            "nearest": self.nearest,
        }


def _finite(value):
    """A float, None where not finite; a list of them for an array."""
    return np.where(np.isfinite(value), value, None).tolist()


class TargetSpec:
    """Arrival test against the controlled-algebra orbit through q_f.

    Membership is measured through the annihilator coordinates (indices
    above R) of the adapted chart centered at q_f; a state q with
    ||q_f^-1 q - I|| >= LOG_RADIUS is treated as non-arriving. The screen
    reads them from q e0 (the hypothesis annihilator_reads_first_column).
    """

    def __init__(self, system: MatrixGroupSystem, q_f: np.ndarray,
                 chart: GroupChart):
        self.q_f_inv = system.inverse(q_f)
        self.R = chart.R
        self.b_pinv = chart.b_pinv
        # `screen`'s bound. It allows 10^4 d eps of rounding on residual's
        # coordinates: d eps per term of series_log's at most 2000, on logs
        # of norm below -log(1 - LOG_RADIUS) < 5; and its columns
        # q_f^-1 (Y (ref e0)) are off the first column of `residual`'s
        # q_f^-1 (Y ref) by under 4 d eps ||q_f^-1||_F ||Y||_F |ref e0|_2
        d = q_f.shape[-1]
        self._reach = (np.sqrt(chart.n - chart.R)
                       * (TARGET_TOL + 1e4 * d * _EPS)
                       / (1.0 - LOG_RADIUS))
        self._rounding = 4 * d * _EPS * np.linalg.norm(self.q_f_inv)

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

    def screen(self, cols: np.ndarray, width=None):
        """Miss distances |q_f^-1 q e0 - e0|_2 of states given by their
        first columns ``cols`` (..., d), and the mask of the states that may
        arrive; ``width`` is |cols|_2, or ||Y||_F |ref e0|_2 for columns
        formed as Y (ref e0). With g = q_f^-1 q = e^X, delta = ||g - I||_F,
        g e0 - e0 = phi(X) X e0 with ||phi(X)||_2 <= (e^||X|| - 1) / ||X||
        <= 1 / (1 - delta), as ||X||_2 <= -log(1 - delta); and |X e0|_2 =
        |x_ann|_2 <= sqrt(N) ||x_ann||_inf. So an arriving state misses by
        at most sqrt(N) TARGET_TOL / (1 - LOG_RADIUS), plus rounding."""
        miss = np.linalg.norm(cols @ self.q_f_inv.T
                              - np.eye(cols.shape[-1])[0], axis=-1)
        if width is None:
            width = np.linalg.norm(cols, axis=-1)
        return miss, miss <= self._reach + self._rounding * width

    def arrival_time(self, times: np.ndarray, states: np.ndarray):
        """Earliest sample time (S,) at which each member meets the target,
        inf for a member that never does, and each state's `screen` miss
        (S, n): ``states`` is an (S, n, d, d) block of members sampled at
        ``times`` (S, n), or (n,) shared by all, in any order.

        The `screen` reads only each state's first column q e0 and rejects
        the states whose miss rules arrival out; only the rest take the
        exact path of `residual`."""
        miss, hit = self.screen(states[..., :, 0])
        hit[hit] = self.residual(states[hit]) <= TARGET_TOL
        return np.min(np.where(hit, times, np.inf), axis=-1), miss


def graph_distance(states: np.ndarray, b_pinv: np.ndarray,
                   ref_inv: np.ndarray) -> np.ndarray:
    """Max over samples of the left-invariant chart distance to the reference.

    ``states`` is an (S, n, d, d) block of members sampled at n times each,
    and ``ref_inv`` the inverse of the reference at those times, (n, d, d)
    or (S, n, d, d): sample j is scored by ref_inv[j] q, its state relative
    to the reference at its own time. ``b_pinv`` maps a flattened algebra
    element to its chart components at the origin (``GroupChart.b_pinv``).
    Returns (S,) distances, inf for a member that leaves the log radius
    LOG_RADIUS of the reference.

    The log head of each sample (`log_head`) and its bound, times
    ||b_pinv||_2, bracket the sample's distance; they are formed one sample
    time at a time. Only the samples whose upper end reaches the member's
    largest lower end take the exact series log, and the member's distance
    is their largest: every other sample lies below it. The sweep scores
    the needles' windows and the bands here; after its window a needle's
    distance comes from log Y through the tables of `_score_needles`.
    """
    count, n, d = states.shape[:3]
    size, reach = np.empty((2, n, count))
    for j in range(n):
        head, reach[j] = log_head(ref_inv[..., j, :, :] @ states[:, j],
                                  LOG_RADIUS)
        size[j] = _column_norms(b_pinv @ head.reshape(count, -1).T)
    reach *= np.linalg.norm(b_pinv, 2)
    near = np.all(np.isfinite(reach), axis=0)
    sample, member = np.nonzero(near & (size + reach >= np.max(size - reach,
                                                               axis=0)))
    x = _quick_log(np.broadcast_to(ref_inv, states.shape)[member, sample]
                   @ states[member, sample]).reshape(len(member), d * d)
    out = np.full(count, -np.inf)
    np.maximum.at(out, member, np.linalg.norm(x @ b_pinv.T, axis=1))
    out[~near] = np.inf
    return out


def _column_norms(mat: np.ndarray) -> np.ndarray:
    """The 2-norm of each column of a matrix."""
    return np.sqrt(np.einsum("ij,ij->j", mat, mat))


@dataclass(frozen=True)
class _Competitors:
    """The competitors' families and seeds (SeedSequence spawn keys) in draw
    order, the needles as one stack, and the bands' cos/sin mode
    coefficients ``coeff`` (B, 2 _BAND_MODES, m)."""

    family: np.ndarray
    seeds: list
    needles: NeedleVariation
    coeff: np.ndarray


def _sample_competitors(system: MatrixGroupSystem, t_hat: float,
                        scan_horizon: float, n_samples: int, radius: float,
                        seed: int) -> _Competitors:
    """Draw the competitors in order, needles and bands alternating, each
    from its own SeedSequence child. At radius 0 every competitor is a
    needle of length 0: the reference itself."""
    t_bar = 0.05 * np.ones(system.R)
    children = np.random.SeedSequence(seed).spawn(n_samples)
    is_needle = (np.arange(n_samples) % 2 == 0) | (radius == 0.0)
    eps, s_bar, noise, coeff = [], [], [], []
    for child, needle in zip(children, is_needle):
        rng = np.random.default_rng(child)
        if needle:
            eps.append(radius * rng.uniform(0.3, 1.0))
            s_bar.append(rng.uniform(0.0, t_hat - 2.0 * eps[-1] ** 2))
            noise.append(rng.standard_normal(system.R))
        else:
            band = radius * rng.standard_normal((2 * _BAND_MODES, system.m))
            coeff.append(band / max(1.0, np.linalg.norm(band)))
    needles = needle_variation(
        s_bar, t_bar + 0.3 * t_bar[0] * np.reshape(noise, (-1, system.R)),
        eps, scan_horizon, system.m, t_bar=t_bar)
    return _Competitors(
        np.where(is_needle, "needle", "band"),
        [list(child.spawn_key) for child in children], needles,
        np.reshape(coeff, (-1, 2 * _BAND_MODES, system.m)))


def _needle_exponentials(system: MatrixGroupSystem,
                         needles: NeedleVariation) -> np.ndarray:
    """exp(s_bar A0), exp(h A0) and the 2r piece exponentials
    E_j = exp(h A0 + a_j A_{c_j}) of each needle of a stack, h = eps^2 / r
    the piece length and a_j the control integral over piece j, in the
    order the overlay plays them: one stacked plane_exp, (S, 2r + 2, d, d).
    Every generator acts on the three coordinates 0, 1 and c_j + 1 only,
    so it is a single-plane generator and the closed form is exact."""
    a0 = system.drift
    channels = list(needles.channels) + list(needles.channels[::-1])
    eps = needles.eps
    h = (eps ** 2 / len(needles.channels))[:, None, None, None]
    a = eps[:, None] * np.concatenate([needles.t_vec, np.broadcast_to(
        -needles.t_bar[..., ::-1], needles.t_vec.shape)], axis=1)
    return plane_exp(np.concatenate([
        needles.s_bar[:, None, None, None] * a0, h * a0,
        h * a0 + a[..., None, None] * np.array(system.controlled)[channels]],
        axis=1))


def _needle_windows(system: MatrixGroupSystem, needles: NeedleVariation,
                    exps: np.ndarray, q0: np.ndarray):
    """The 2r + 1 piece boundaries s_bar + k h (S, 2r + 1) of each needle's
    window, its states there q0 exp(s_bar A0) E_1 ... E_k, the inverses of
    the reference q0 exp(s_bar A0) exp(k h A0) at them, and the shift
    Y = q(t_end) ref(t_end)^-1 (S, d, d): q(t) = Y ref(t) after the window."""
    h = needles.eps ** 2 / len(needles.channels)
    start = q0 @ exps[:, 0]
    q_win, ref_win = [start], [start]
    for k in range(2, exps.shape[1]):
        q_win.append(q_win[-1] @ exps[:, k])
        ref_win.append(ref_win[-1] @ exps[:, 1])
    q_win = np.stack(q_win, axis=1)
    ref_win_inv = system.inverse(np.stack(ref_win, axis=1))
    return (needles.s_bar[:, None] + h[:, None] * np.arange(q_win.shape[1]),
            q_win, ref_win_inv, q_win[:, -1] @ ref_win_inv[:, -1])


def _score_needles(system: MatrixGroupSystem, needles: NeedleVariation,
                   target: TargetSpec, grid: np.ndarray, ref: np.ndarray,
                   ref_inv: np.ndarray, q0: np.ndarray):
    """Arrival times and graph distances (S,) of needles sampled on the
    base grid and their windows, and each one's nearest sample: its
    smallest `TargetSpec.screen` miss, time and state.

    Only the window states take `arrival_time` and `graph_distance`. Off
    its window a needle is L ref(t), with L = I before it and L = Y after
    it, so it is screened on L (ref(t) e0), and after it ref(t)^-1 q(t) has
    the log ref(t)^-1 (log Y) ref(t): with K(t) vec X =
    vec(ref(t)^-1 X ref(t)), tabled once, its log-radius test reads
    ||K(t) vec(Y - I)|| and its distance ||b_pinv K(t) vec(log Y)||."""
    d = ref.shape[-1]
    times, q_win, ref_win_inv, shift = _needle_windows(
        system, needles, _needle_exponentials(system, needles), q0)
    after = grid > times[:, -1:]
    off = (grid < times[:, :1]) | after

    def off_window(s, t):
        return np.where(after[s, t, None, None], shift[s], np.eye(d)) @ ref[t]

    grid_miss, hit = target.screen(
        np.where(after[..., None], np.swapaxes(shift @ ref[:, :, 0].T, 1, 2),
                 ref[:, :, 0]),
        np.where(after, np.linalg.norm(shift, axis=(1, 2))[:, None], 1.0)
        * np.linalg.norm(ref[:, :, 0], axis=1))
    hit &= off
    member, sample = np.nonzero(hit)
    hit[member, sample] = target.residual(off_window(member, sample)) \
        <= TARGET_TOL
    win_arrivals, win_miss = target.arrival_time(times, q_win)
    arrivals = np.minimum(win_arrivals,
                          np.min(np.where(hit, grid, np.inf), axis=1))

    dists = graph_distance(q_win, target.b_pinv, ref_win_inv)
    kron = (ref_inv[:, :, None, :, None] * np.swapaxes(ref, 1, 2)[
        :, None, :, None, :]).reshape(len(grid), d * d, d * d)
    gap = (shift - np.eye(d)).reshape(-1, d * d).T
    spread = np.array([_column_norms(k @ gap) for k in kron]).T
    near = ~np.any(after & (spread >= LOG_RADIUS), axis=1)
    dists[~near] = np.inf
    if np.any(near):
        logs = _quick_log(shift[near]).reshape(-1, d * d).T
        size = np.array([_column_norms(k @ logs)
                         for k in target.b_pinv @ kron]).T
        dists[near] = np.maximum(dists[near], np.max(
            np.where(after[near], size, -np.inf), axis=1))

    miss = np.hstack([np.where(off, grid_miss, np.inf), win_miss])
    s, j = np.arange(len(times)), np.argmin(miss, axis=1)
    g, k = np.minimum(j, grid.size - 1), np.maximum(j - grid.size, 0)
    on_grid = j < grid.size
    return arrivals, dists, (miss[s, j], np.where(
        on_grid, grid[g], times[s, k]), np.where(
        on_grid[:, None, None], off_window(s, g), q_win[s, k]))


def _band_flow(system: MatrixGroupSystem, coeff: np.ndarray, t_hat: float,
               q0: np.ndarray, grid: np.ndarray):
    """q' = q (A0 + sum u_i A_i), q(0) = q0, for bands with coefficients
    ``coeff`` (B, 2 _BAND_MODES, m): the (T, B, d, d) flow on the grid by
    the fourth-order commutator-free Magnus step q <- q exp(h (w1 A(t1) +
    w2 A(t2))) exp(h (w2 A(t1) + w1 A(t2))) at the Gauss nodes t1,2 = t +
    (1/2 -+ r) h, w1,2 = 1/4 +- r, r = sqrt(3)/6 (Blanes & Moan, Appl.
    Numer. Math. 56, 2006). Each factor is a wedge x = c e1^T + e1 r^T
    (fields_are_e1_wedges), x^2 = c r^T + (r.c) e1 e1^T, so its exact
    exponential I + S1 x + S2 x^2 is formed from c and r, with S1 and S2
    of all steps from one `plane_series`. Also returns the drift off the
    group, the largest `group_residual` of the last row before the guard
    `project_to_group`; a row it cannot guard raises ProjectionError."""
    h, r = np.diff(grid), np.sqrt(3.0) / 6.0
    nodes = grid[:-1, None] + (0.5 + np.array([-r, r])) * h[:, None]
    phase = 2.0 * np.pi * np.arange(1, _BAND_MODES + 1) * nodes[..., None] \
        / t_hat
    # the cos/sin modes at the nodes, and the drift as a constant mode
    modes = np.concatenate([np.stack([np.cos(phase), np.sin(phase)], axis=-1)
                            .reshape(*nodes.shape, -1),
                            np.ones((*nodes.shape, 1))], axis=2)
    mix = h[:, None, None] * ((0.25 + np.array([[r, -r], [-r, r]])) @ modes)
    # c and r of each factor: its mode weights times each x[:, 1], x[1, :]
    fields = np.concatenate([system.drift[None], np.array(system.controlled)])
    col, row = (np.tensordot(mix, np.concatenate(
        [coeff @ vec[1:], np.tile(vec[0], (len(coeff), 1, 1))], axis=1),
        (2, 1)) for vec in (fields[:, :, 1], fields[:, 1]))
    lam = np.einsum("...i,...i->...", col, row)
    s1, s2 = plane_series(lam)
    # S1 x + S2 x^2 = (S2 c + S1 e1) r^T + (S1 c + S2 lam e1) e1^T
    left = s2[..., None] * col
    col *= s1[..., None]
    left[..., 1], col[..., 1] = s1, s2 * lam
    eye = np.eye(q0.shape[-1])
    out = np.empty((grid.size, len(coeff), *q0.shape))
    out[0] = q = q0
    for k in range(h.size):
        factors = left[k, ..., None] * row[k, ..., None, :]
        factors[..., 1] += col[k]
        factors += eye
        out[k + 1] = q = q @ factors[0] @ factors[1]
    residual = float(np.max(system.group_residual(out[-1])))
    try:
        out[-1] = system.project_to_group(out[-1])
    except (np.linalg.LinAlgError, ProjectionError) as exc:
        raise ProjectionError(
            f"the band flow's last row is {residual:.3g} off the group at "
            f"horizon {t_hat:g} and cannot be projected back: {exc}"
        ) from None
    return out, residual


def competitor_sweep(system: MatrixGroupSystem, extremal: ExtremalTrajectory,
                     target: TargetSpec, n_samples: int = 200,
                     radius: float = 0.1, seed: int = 0,
                     dt: float = 0.02) -> FalsificationReport:
    """Sample needle and band competitors and scan for early arrival.

    Unreachable samples are recorded as non-competing; the verdict is
    "refuted" only when an admissible competitor arrives earlier than the
    reference horizon minus the time tolerance. Raises LinAlgError where
    the arc is not finite, and ProjectionError where the band flow cannot
    be guarded back onto the group.
    """
    require_finite(extremal)
    t_hat = extremal.horizon
    q0 = extremal.q[0]
    scan_horizon = t_hat * (1.0 + HORIZON_PAD)
    grid = np.union1d(time_grid(scan_horizon, dt), [t_hat])
    ref = q0 @ reference_flow(system, grid)
    ref_inv = system.inverse(ref)
    competitors = _sample_competitors(system, t_hat, scan_horizon,
                                      n_samples, radius, seed)
    families = competitors.family
    arrivals = np.full(n_samples, np.inf)
    dists = np.full(n_samples, np.inf)
    # each competitor's smallest miss (TargetSpec.screen), its time, state
    miss = np.full(n_samples, np.inf)
    miss_time = np.zeros(n_samples)
    miss_state = np.zeros((n_samples, *q0.shape))
    needles = np.flatnonzero(families == "needle")
    if needles.size:
        arrivals[needles], dists[needles], (
            miss[needles], miss_time[needles], miss_state[needles]) = \
            _score_needles(system, competitors.needles, target, grid, ref,
                           ref_inv, q0)
    bands = np.flatnonzero(families == "band")
    band_residual = None
    if bands.size:
        flow, band_residual = _band_flow(system, competitors.coeff, t_hat,
                                         q0, grid)
        states = flow.swapaxes(0, 1)
        arrivals[bands], band_miss = target.arrival_time(grid, states)
        dists[bands] = graph_distance(states, target.b_pinv, ref_inv)
        j = np.argmin(band_miss, axis=1)
        b = np.arange(bands.size)
        miss[bands], miss_time[bands] = band_miss[b, j], grid[j]
        miss_state[bands] = states[b, j]

    admissible = np.isfinite(dists) & ((radius == 0.0) | (dists <= 10 * radius))
    early = arrivals < t_hat - TIME_TOLERANCE
    arrived = admissible & np.isfinite(arrivals)
    bins = {"outside_log_radius": ~np.isfinite(dists),
            "inadmissible": np.isfinite(dists) & ~admissible,
            "missed": admissible & ~arrived, "arrived": arrived,
            "arrived_early": arrived & early}
    tallies = {family: {"sampled": int(np.sum(families == family)),
                        **{key: int(np.sum(mask & (families == family)))
                           for key, mask in bins.items()}}
               for family in ("needle", "band")}
    records = [{"sample": idx, "family": family, "seed": seed_key,
                "arrival": arrival, "graph_distance": dist}
               for idx, (family, seed_key, arrival, dist) in enumerate(zip(
                   families.tolist(), competitors.seeds, _finite(arrivals),
                   _finite(dists)))]
    min_arrival = float(np.min(arrivals[arrived], initial=np.inf))
    witness = None
    if min_arrival < t_hat - TIME_TOLERANCE:
        witness = dict(records[int(np.flatnonzero(
            arrived & (arrivals == min_arrival))[0])])
    order = np.argsort(miss, kind="stable")[:_NEAREST]
    nearest = [{"sample": int(idx), "family": str(families[idx]),
                "time": float(miss_time[idx]), "miss": _finite(miss[idx]),
                "residual": _finite(res),
                "graph_distance": _finite(dists[idx])}
               for idx, res in zip(order, target.residual(miss_state[order]))]
    return FalsificationReport(
        n_samples=n_samples, min_arrival=min_arrival, radius=radius,
        horizon=t_hat,
        verdict="refuted" if witness is not None else "no counterexample",
        records=records, witness=witness, band_group_residual=band_residual,
        tallies=tallies, nearest=nearest)


def report_to_csv(report: FalsificationReport, path) -> None:
    columns = ["sample", "family", "arrival", "graph_distance"]
    write_csv(path, columns, ([r[c] for c in columns] for r in report.records))
