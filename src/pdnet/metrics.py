"""Evaluation metrics and numeric theory-bound monitors.

Implements the relative-error and constraint-violation metrics used to
judge runs, the convergence-rate constant and bound monitors, the
multiplier/subgradient/consensus bound envelopes checked by the
verification suites, and the stepsize product-sum and window-sum
inequalities as predicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .lagrangian import checked_eta
from .problems import ProblemSpec, ReferenceSolution, checked_int

#: Normalizers smaller than this are treated as degenerate.
DEGENERATE_NORMALIZER = 1e-14

#: Rows per block of the pairwise-distance scan in ``outputs_diameter``.
DIAMETER_BLOCK = 64

#: Snapshot bytes a run keeps before it computes their records as one
#: ``compute_record`` call (always at least one snapshot).
RECORD_CHUNK_BYTES = 256 * 1024


def snapshots_per_chunk(states) -> int:
    """How many snapshots of ``states``' shapes fill RECORD_CHUNK_BYTES (at
    least one). Only their x, avg_numerator, grad_x, lam and grad_lam count,
    not the objects or the chunk's temporaries: the baseline keeps all 201
    records of a canonical run in one chunk, and peaks at about 0.7 MB."""
    return max(1, RECORD_CHUNK_BYTES // (3 * states.x.nbytes + 2 * states.lam.nbytes))


class MetricError(ValueError):
    """Metric undefined for the supplied states (degenerate or empty)."""


@dataclass(frozen=True)
class IterationRecord:
    """Metrics sampled at one iteration.

    ``eps`` is the maximum relative objective error over agents and
    ``delta`` the maximum relative constraint norm; both are normalized by
    their value at the t = 0 iterates, so eps = 1 exactly at t = 0.
    ``violation_sq`` is the squared positive part of the network-average
    constraint vector. ``eps_absolute`` flags records where a degenerate
    normalizer forced the absolute gap to be reported instead.
    ``thm2_bound`` is the deterministic rate bound at horizon t, compared
    with ``max_gap``; like ``eps`` and ``max_gap`` it needs a reference
    optimum and is ``nan`` without one.
    """

    t: int
    eps: float
    delta: float
    max_lambda_norm: float
    consensus_diameter: float
    thm2_bound: float
    violation_sq: float
    max_gap: float
    sum_lambda_sq: float
    max_grad_x_norm: float
    max_grad_lambda_excess: float
    eps_absolute: bool = False


CSV_COLUMNS = (
    "t", "eps_G", "delta_G", "max_lambda_norm", "consensus_diameter",
    "bound_margin_thm2", "violation_sq", "max_gap", "sum_lambda_sq",
    "max_grad_x_norm", "max_grad_lambda_excess", "eps_absolute",
)


def record_csv_row(r: IterationRecord) -> str:
    margin = r.thm2_bound - r.max_gap
    vals = (r.t, r.eps, r.delta, r.max_lambda_norm, r.consensus_diameter,
            margin, r.violation_sq, r.max_gap, r.sum_lambda_sq,
            r.max_grad_x_norm, r.max_grad_lambda_excess, int(r.eps_absolute))
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in vals)


# ---------------------------------------------------------------------------
# run metrics
# ---------------------------------------------------------------------------

def _outputs(states, rows: int | None = None, start: bool = False):
    """The running averages of ``states`` (or, at the ``start``, its
    iterates while it has no averages) if they are one block of ``rows``
    rows, or of one row or more if None; ProblemSpec checks the columns."""
    if not (start or states.weight_sum > 0.0):  # NaN included
        raise MetricError("running averages undefined (weight sum is not positive)")
    points = states.output_points()
    if points.ndim != 2 or not len(points) or rows not in (None, len(points)):
        raise MetricError(f"outputs have shape {points.shape}, "
                          f"not {rows or 'one or more'} rows")
    return points


def row_norms(rows: np.ndarray) -> np.ndarray:
    """The bits of np.linalg.norm(rows, axis=-1), without its argument
    handling: the norm of each row, or of the one vector."""
    return np.sqrt(np.add.reduce(rows * rows, axis=-1))


def _max_ratio(values: np.ndarray, normalizers: np.ndarray):
    """max_i |values_i / normalizers_i| per row, or None if degenerate."""
    if np.minimum.reduce(np.abs(normalizers)) < DEGENERATE_NORMALIZER:
        return None
    return np.maximum.reduce(np.abs(values / normalizers), axis=-1)


def objective_values(p: ProblemSpec, points: np.ndarray,
                     keep: np.ndarray | None = None) -> np.ndarray:
    """f at each row of each (n, d) block of the stack ``points`` (R, n, d),
    with the bits of ``p.mean_objective_many`` in one call; rows where
    ``keep`` is False may read 0. A block of equal rows, such as every row
    at t = 0 from the origin, is evaluated once."""
    equal = ~(points != points[:, :1]).any(axis=(1, 2))
    evaluate = np.ones(points.shape[:2], bool) if keep is None else keep.copy()
    evaluate[equal] = np.arange(points.shape[1]) == 0
    values = np.zeros(points.shape[:2])
    values[evaluate] = p.mean_objective_many(points[evaluate])
    values[equal] = values[equal, :1]
    return values


def _objective_maxima(p: ProblemSpec, points: np.ndarray, f_star: float,
                      normalizers: np.ndarray):
    """(max_gap, eps) per (n, d) block of the stack ``points``: max_i
    (f_i - f*) and max_i |(f_i - f*) / normalizers_i| over its rows, which
    is the absolute gap for normalizers of 1. Bit-equal to evaluating f at
    every row.

    ``p.mean_objective_bracket`` bounds every f_i in O(nd). Rounding is
    monotone, so the bounds carry through f - f*, its absolute value and
    the division as bounds on the computed values, and a row whose upper
    bound falls below another row's lower bound cannot attain a maximum.
    f is evaluated exactly only at the rows left, once in a block of equal
    rows. The absolute value makes eps's bracket differ from max_gap's: a
    regularized run's outputs can sit below f*, as its saddle point is
    infeasible.
    """
    lower, upper = p.mean_objective_bracket(points)
    # |f - f*| lies between max(lower - f*, f* - upper), which is negative
    # when the bracket holds f*, and max(f* - lower, upper - f*)
    abs_lo = np.maximum(lower - f_star, f_star - upper) / np.abs(normalizers)
    abs_hi = np.maximum(f_star - lower, upper - f_star) / np.abs(normalizers)
    keep = ((upper >= np.maximum.reduce(lower, axis=1)[:, None])
            | (abs_hi >= np.maximum.reduce(abs_lo, axis=1)[:, None]))
    gaps = objective_values(p, points, keep) - f_star
    sizes = np.abs(gaps / normalizers)
    gaps[~keep] = sizes[~keep] = -np.inf
    return np.maximum.reduce(gaps, axis=1), np.maximum.reduce(sizes, axis=1)


def _violation_sq(gvals: np.ndarray) -> np.ndarray:
    """||[mean of the rows of gvals]_+||^2, per (n, m) block of a stack."""
    mean = np.add.reduce(gvals, axis=-2) / gvals.shape[-2]  # np.mean's bits
    return np.add.reduce(np.maximum(mean, 0.0) ** 2, axis=-1)


def initial_normalizers(p: ProblemSpec, initial_states,
                        ref: ReferenceSolution | None = None):
    """(fgaps, gnorms): f(xhat_i(0)) - f* and ||g(xhat_i(0))|| per agent,
    the normalizers of eps and delta, at the t = 0 iterates (the averages
    if ``initial_states`` has any). fgaps is None without ``ref``."""
    outputs0 = _outputs(initial_states, start=True)
    gnorms = row_norms(p.constraint_values_many(outputs0))
    fgaps = (None if ref is None
             else objective_values(p, outputs0[None])[0] - ref.f_star)
    return fgaps, gnorms


def epsilon_G(p: ProblemSpec, ref: ReferenceSolution, states,
              initial_states) -> float:
    """Maximum relative objective error over the network.

    max_i |(f(xhat_i) - f*) / (f(xhat_i(0)) - f*)| where f is the
    cumulative objective, normalized at the t = 0 iterates. Raises when an
    average of ``states`` is undefined or an initial gap falls below the
    degenerate-normalizer threshold.
    """
    normalizers = initial_normalizers(p, initial_states, ref)[0]
    outputs = _outputs(states, len(normalizers))
    if np.min(np.abs(normalizers)) < DEGENERATE_NORMALIZER:
        raise MetricError("initial objective gap is degenerate")
    return float(_objective_maxima(p, outputs[None], ref.f_star,
                                   normalizers)[1][0])


def delta_G(p: ProblemSpec, states, initial_states) -> float:
    """Maximum relative constraint norm, max_i ||g(xhat_i)|| / ||g(xhat_i(0))||.

    Uses the full constraint-vector norm (not its positive part), so a
    strictly feasible trajectory keeps delta bounded away from zero.
    """
    normalizers = initial_normalizers(p, initial_states)[1]
    outputs = _outputs(states, len(normalizers))
    delta = _max_ratio(row_norms(p.constraint_values_many(outputs)), normalizers)
    if delta is None:
        raise MetricError("initial constraint norm is zero")
    return float(delta)


def violation_functional(p: ProblemSpec, states) -> float:
    """|| [ (1/n) sum_i g(xhat_i) ]_+ ||^2, the violation bound's subject."""
    return float(_violation_sq(
        p.constraint_values_many(_outputs(states))))


# ---------------------------------------------------------------------------
# theory constants and bound envelopes
# ---------------------------------------------------------------------------

def _log_term(p: ProblemSpec, sigma2: float, horizon: int) -> float:
    """log(T sqrt(n T)) / (1 - sigma2), the mixing-time factor of the
    bounds, for sigma2 in [0, 1) and an integer horizon T >= 2."""
    if not 0.0 <= sigma2 < 1.0:  # NaN included
        raise MetricError(f"sigma2 = {sigma2!r} is not in [0, 1) "
                          "(a connected mixing matrix)")
    horizon = checked_int(horizon, "horizon", 2, error=MetricError)
    return math.log(horizon * math.sqrt(p.n_agents * horizon)) / (1.0 - sigma2)


def _amplification(p: ProblemSpec, eta: float) -> float:
    """1 + n m^{3/2} L R / eta, the multiplier-driven growth factor."""
    eta = checked_eta(eta, MetricError)
    return 1.0 + p.n_agents * p.n_constraints ** 1.5 * p.lipschitz * p.radius / eta


def thm2_constant(p: ProblemSpec, sigma2: float, eta: float,
                  horizon: int) -> float:
    """The convergence-rate constant C of the deterministic rate bound."""
    log_term = _log_term(p, sigma2, horizon)
    lip, radius = p.lipschitz, p.radius
    return (1.0 + 2.5 * p.n_constraints * lip ** 2 * radius ** 2
            + 20.0 * lip ** 2 * _amplification(p, eta) ** 2 * log_term ** 1.5)


def rate_bound(p: ProblemSpec, sigma2: float, eta: float, horizon: int) -> float:
    """R C log(T) / (sqrt(T) - 1), the deterministic gap bound at T >= 2."""
    return (p.radius * thm2_constant(p, sigma2, eta, horizon)
            * math.log(horizon) / (math.sqrt(horizon) - 1.0))


def _constraint_norm_sq_bound(p: ProblemSpec) -> float:
    """G^2 >= ||g(x)||^2 on the radius-R ball: the assumed m L^2 R^2, or
    the box's maximum where it is larger. A box's g(x) = (lower - x,
    x - upper) has ||g||^2 = 2||x||^2 - 2 <x, lower + upper> + ||lower||^2
    + ||upper||^2, which peaks at x = -R (lower + upper) / ||lower + upper||."""
    assumed = p.n_constraints * p.lipschitz ** 2 * p.radius ** 2
    if p.box is None:
        return assumed
    (lower, upper), radius = p.box, p.radius
    shift = float(np.linalg.norm(lower + upper))
    return max(assumed, 2.0 * radius * (radius + shift)
               + float(lower @ lower + upper @ upper))


def lambda_norm_bound(p: ProblemSpec, eta: float) -> float:
    """Envelope for sum_i ||lam_i(t)||^2 under eta * alpha(t) <= 1: each
    ||lam_i|| stays below G / eta, as a step mixes (1 - alpha eta) lam +
    alpha g and projects onto the orthant."""
    return (p.n_agents * _constraint_norm_sq_bound(p)
            / checked_eta(eta, MetricError) ** 2)


def grad_x_norm_bound(p: ProblemSpec, eta: float) -> float:
    """Envelope for the primal subgradient norm, L (1 + n m^{3/2} L R / eta)."""
    return p.lipschitz * _amplification(p, eta)


def grad_lambda_excess_bound(p: ProblemSpec) -> float:
    """Envelope for ||grad_lam||^2 - 2 eta^2 ||lam||^2, namely 2 G^2, as
    ||g - eta lam||^2 <= 2 ||g||^2 + 2 eta^2 ||lam||^2."""
    return 2.0 * _constraint_norm_sq_bound(p)


def consensus_bound(p: ProblemSpec, sigma2: float, eta: float, horizon: int,
                    alpha_t: float) -> float:
    """Envelope for the pairwise iterate distance at stepsize alpha(t)."""
    return (5.0 * p.lipschitz * _amplification(p, eta)
            * _log_term(p, sigma2, horizon) ** 1.5 * alpha_t)


def strict_violation_bound(p: ProblemSpec, sigma2: float, eta: float,
                           horizon: int, step_scale: float) -> float:
    """Explicit finite-horizon violation envelope for strictly feasible optima.

    Assembles the constraint-violation inequality with its consensus-term
    bound substituted, using the exact stepsize sums of the analysis
    window. Decays like eta log(T)/sqrt(T).
    """
    log_term = _log_term(p, sigma2, horizon)
    ts = np.arange(horizon)
    alphas = step_scale / np.sqrt(ts + 1.0)
    s1 = float(alphas.sum())
    s2 = float((alphas ** 2).sum())
    lip, radius, m = p.lipschitz, p.radius, p.n_constraints
    amp = _amplification(p, eta)
    a_const = m * lip ** 2 * radius ** 2 + 8.0 * lip ** 2 * amp ** 2 * log_term ** 1.5
    f_plus = 5.0 * lip ** 2 * amp * log_term ** 1.5 * s2 / s1
    return (2.0 * (eta + 1.0 / s1) * f_plus
            + 2.0 * (eta * s1 + 1.0) / s1 ** 2 * (2.0 * radius ** 2 + a_const * s2))


# ---------------------------------------------------------------------------
# auxiliary inequalities
# ---------------------------------------------------------------------------

def check_product_sum_inequality(alphas, eta: float) -> bool:
    """Check sum_l a(l) eta prod_{k>l} (1 - a(k) eta) <= 1 for every prefix.

    Requires eta in ETA_RANGE and 0 <= a(t) * eta <= 1 throughout;
    evaluated by the stable forward recursion S(t) = (1 - a(t) eta) S(t-1)
    + a(t) eta.
    """
    eta = checked_eta(eta, MetricError)
    thetas = [float(a) * eta for a in alphas]
    if not all(0.0 <= th <= 1.0 + 1e-15 for th in thetas):  # NaN included
        raise MetricError("precondition 0 <= alpha(t) * eta <= 1 violated")
    s = 0.0
    for th in thetas:
        s = (1.0 - th) * s + th
        if s > 1.0 + 1e-12:
            return False
    return True


def check_tau_inequality(tau: int, t: int) -> bool:
    """Check sum_{r=t-tau+1}^{t-1} sqrt((t+1)/(r+1)) <= tau^{3/2}."""
    tau = checked_int(tau, "tau", 1, error=MetricError)
    t = checked_int(t, "t", tau - 1, error=MetricError)
    total = sum(math.sqrt((t + 1.0) / (r + 1.0))
                for r in range(t - tau + 1, t))
    return total <= tau ** 1.5


# ---------------------------------------------------------------------------
# empirical rate fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    exponent: float
    r2: float


def rate_fit(trace, column: str, window: tuple[float, float]) -> RateFit:
    """Least-squares slope of log(metric) against log(t) over a window.

    ``trace`` may be a Trace or any iterable of IterationRecord, and
    ``column`` names an IterationRecord field (``eps``, not ``eps_G``).
    Requires at least 10 strictly positive records inside the window.
    """
    names = [f.name for f in fields(IterationRecord)]
    if column not in names:
        raise MetricError(f"unknown record field {column!r}; one of "
                          f"{', '.join(names)}")
    try:
        lo, hi = (float(v) for v in window)
        ts, ys = [], []
        for r in getattr(trace, "records", trace):
            if lo <= r.t <= hi and r.t > 0:
                ts.append(float(r.t))
                ys.append(float(getattr(r, column)))
    except (TypeError, ValueError, AttributeError):
        raise MetricError("rate fit needs IterationRecords and a (lo, hi) "
                          "window of numbers") from None
    if len(ts) < 10:
        raise MetricError(f"need >= 10 records in window, got {len(ts)}")
    y = np.array(ys)
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise MetricError("rate fit needs strictly positive finite values")
    lx = np.log(np.array(ts))
    ly = np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(exponent=float(slope), r2=r2)


# ---------------------------------------------------------------------------
# record assembly (used by the engine at sampled iterations)
# ---------------------------------------------------------------------------

class Snapshot(NamedTuple):
    """The states at iteration t and the directions of the step from them."""

    t: int
    states: object
    grad_x: np.ndarray
    grad_lam: np.ndarray


def compute_record(p: ProblemSpec, snapshots: list[Snapshot], eta: float,
                   sigma2: float, *, ref: ReferenceSolution | None,
                   initial_fgaps: np.ndarray | None,
                   initial_gnorms: np.ndarray) -> list[IterationRecord]:
    """The records of ``snapshots``, each quantity computed once over
    their stacked (R, n, .) rows: bit for bit those of one call each.

    At t = 0 (empty averages) the current iterates stand in for the
    averages, which pins eps and delta to exactly 1. ``initial_fgaps``
    (None exactly when ``ref`` is) and ``initial_gnorms`` are the
    per-agent normalizers from ``initial_normalizers``. ``sigma2`` enters
    only the rate bound, which is evaluated only with ``ref``; without one
    any value may be passed.
    """
    # one record's arrays are viewed, not copied
    stack = np.stack if len(snapshots) > 1 else lambda arrays: arrays[0][None]
    lam_norms = row_norms(stack([s.states.lam for s in snapshots]))
    grad_x_norms = row_norms(stack([s.grad_x for s in snapshots]))
    glam_sq = np.add.reduce(stack([s.grad_lam for s in snapshots]) ** 2,
                            axis=2)
    diameters = outputs_diameter(stack([s.states.x for s in snapshots]))
    outputs = stack([s.states.output_points() for s in snapshots])
    blocks, n, _ = outputs.shape
    nan = np.full(blocks, math.nan)
    eps_absolute = ref is not None and bool(
        np.minimum.reduce(np.abs(initial_fgaps)) < DEGENERATE_NORMALIZER)
    max_gap, eps = (nan, nan) if ref is None else _objective_maxima(
        p, outputs, ref.f_star, np.ones(n) if eps_absolute else initial_fgaps)
    gvals = p.constraint_values_many(outputs.reshape(blocks * n, -1)
                                     ).reshape(blocks, n, p.n_constraints)
    delta = _max_ratio(row_norms(gvals), initial_gnorms)
    thm2 = [rate_bound(p, sigma2, eta, s.t)
            if ref is not None and s.t >= 2 and eta > 0.0 and sigma2 < 1.0
            else math.nan for s in snapshots]
    columns = (
        eps, nan if delta is None else delta,
        np.maximum.reduce(lam_norms, axis=1), diameters, thm2,
        _violation_sq(gvals), max_gap, np.add.reduce(lam_norms ** 2, axis=1),
        np.maximum.reduce(grad_x_norms, axis=1),
        np.maximum.reduce(glam_sq - 2.0 * eta ** 2 * lam_norms ** 2, axis=1))
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return [IterationRecord(s.t, *row, eps_absolute)
            for s, row in zip(snapshots, rows)]


def _max_sq(diffs: np.ndarray):
    """The largest per-pair squared distance ``np.sum((x_i - x_j) ** 2)``
    over the last axis of the per-pair differences ``diffs``, which it
    squares in place."""
    return np.maximum.reduce(
        np.add.reduce(np.square(diffs, out=diffs), axis=-1), axis=None)


def _block_max_sq(points: np.ndarray) -> list:
    """Per-block maxima of the per-pair squared distances among the rows
    of ``points``, over the upper triangle in blocks of DIAMETER_BLOCK rows:
    each temporary holds DIAMETER_BLOCK x n x d values, not n x n x d."""
    return [_max_sq(points[s:s + DIAMETER_BLOCK, None, :] - points[None, s:, :])
            for s in range(0, points.shape[0], DIAMETER_BLOCK)]


def _pair_max_sq(points: np.ndarray, r: np.ndarray, lower: float,
                 slack: float) -> list:
    """Per-chunk maxima of the per-pair squared distances over the pairs
    of rows of ``points`` that can be longer than ``lower``. ``r`` is each
    row's distance from the center and ``slack`` the rounding slack of the
    prune.

    With the rows sorted by r, descending, row p pairs only with the later
    rows q that have r_q >= lower - r_p - slack, by the triangle
    inequality. Those rows are a prefix of the tail, found by
    ``searchsorted``, and each row's prefix is shorter than the one before,
    so the pairs end at the first empty one. A chunk holds at most
    DIAMETER_BLOCK x n / 2 pairs of the n rows: its two (pairs, d) arrays
    and its partner index hold no more than a block of the block scan.
    """
    order = np.argsort(-r, kind="stable")
    points, r = points[order], r[order]
    # -r ascends, and r_q >= threshold_p is -r_q <= -threshold_p
    ends = np.searchsorted(-r, -(lower - r - slack), side="right")
    counts = ends - np.arange(1, len(r) + 1)
    counts = counts[:np.count_nonzero(counts > 0)]
    totals = np.cumsum(counts)
    maxima, lo, limit = [], 0, DIAMETER_BLOCK * len(points) // 2
    while lo < len(counts):
        # the rows from lo whose pairs fit in the chunk: row lo's fewer
        # than n always do, as DIAMETER_BLOCK is at least 2
        hi = int(np.searchsorted(totals, totals[lo] - counts[lo] + limit,
                                 side="right"))
        pairs = counts[lo:hi]
        # pair g of the list is row p's pair (p, g + shift_p)
        partners = np.repeat(
            np.arange(lo + 1, hi + 1) - (totals[lo:hi] - pairs), pairs)
        partners += np.arange(totals[lo] - pairs[0], totals[hi - 1])
        diffs = np.repeat(points[lo:hi], pairs, axis=0)
        diffs -= np.take(points, partners, axis=0)
        maxima.append(_max_sq(diffs))
        lo = hi
    return maxima


def outputs_diameter(points: np.ndarray) -> np.ndarray:
    """Largest pairwise Euclidean distance among the rows of each (n, d)
    block of the stack ``points`` (R, n, d).

    Exact, and bit-equal to the one-shot n x n x d formula: every per-pair
    value is ``np.sum((x_i - x_j) ** 2)`` over the last axis, and one sqrt
    is taken of the largest. The scan is pruned by the triangle inequality.
    With c the mean row and r_i = ||x_i - c||, the pairs from the row a
    farthest from c and from the row b farthest from a give a lower bound
    L. A pair longer than L has r_i + r_j > L, so both its rows have
    r > L - max(r), and only the pairs of those rows with r_i + r_j > L
    are scanned (``_pair_max_sq``); up to DIAMETER_BLOCK such rows are
    scanned as one block. No temporary holds more than DIAMETER_BLOCK x n
    x d values. Identical rows return 0 after O(nd) work; non-finite
    values fall back to the full block scan.
    """
    blocks, n, d = points.shape
    each = np.arange(blocks)
    center = np.add.reduce(points, axis=1) / n  # np.mean's bits
    r = np.sqrt(np.add.reduce((points - center[:, None]) ** 2, axis=2))
    a = r.argmax(axis=1)
    from_a = np.add.reduce((points - points[each, a][:, None]) ** 2, axis=2)
    b = from_a.argmax(axis=1)
    lower_sq = np.maximum(from_a[each, b], np.maximum.reduce(np.add.reduce(
        (points - points[each, b][:, None]) ** 2, axis=2), axis=1))
    lower, r_max = np.sqrt(lower_sq), r[each, a]
    # r and each per-pair value carry at most d + 2 roundings (difference,
    # square, d - 1 additions, sqrt), a relative error below (d + 2) eps
    # of L + max(r), the size of the point cloud about c; the factor 4
    # also covers the rounding of the thresholds themselves. A float
    # difference is rounded relative to itself, so a common offset of the
    # points (up to 1e8 in the tests) adds nothing. Squares that underflow
    # add an absolute error below sqrt((d + 2) tiny).
    finfo = np.finfo(r.dtype)
    slack = (4.0 * (d + 2) * float(finfo.eps) * (lower + r_max)
             + math.sqrt((d + 2) * float(finfo.tiny)))
    threshold = lower - r_max - slack
    # a non-finite threshold keeps every row, which is the full scan
    survive = ~(r < threshold[:, None])
    out = []
    for k in range(blocks):
        if not from_a[k].any() and not np.any(points[k] != points[k, a[k]]):
            out.append(0.0)
            continue
        kept = points[k][survive[k]]
        maxima = (_block_max_sq(kept) if len(kept) <= DIAMETER_BLOCK
                  or not math.isfinite(threshold[k])
                  else _pair_max_sq(kept, r[k][survive[k]], lower[k],
                                    slack[k]))
        out.append(np.sqrt(np.maximum.reduce([lower_sq[k], *maxima])))
    return np.array(out)
