"""Synchronous multi-agent primal-dual iteration engine.

Executes the deterministic and constraint-sampling variants of the
distributed regularized primal-dual method, plus the centralized
unregularized baseline. All agents read the iteration-t snapshot and then
write t+1; reductions run in a fixed agent order and the sampling streams
are counter-based, so traces replay bit-identically for a given config.
"""

from __future__ import annotations

import dataclasses
import importlib.machinery
import importlib.util
import logging
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .graphs import ConsensusMatrix
from .lagrangian import (checked_eta, iteration_uniforms, primal_directions,
                         rekeyed, sample_constraint_indices, uniform_stream)
from .metrics import IterationRecord
from .problems import ProblemSpec, ReferenceSolution, checked_int

log = logging.getLogger(__name__)

DETERMINISTIC = "deterministic"
STOCHASTIC = "stochastic"
CENTRALIZED_UNREGULARIZED = "centralized_unregularized"
VARIANTS = (DETERMINISTIC, STOCHASTIC, CENTRALIZED_UNREGULARIZED)

INIT_ORIGIN = "origin"
INIT_RANDOM_FEASIBLE = "random_feasible"

#: Dual iterates beyond this norm abort the run (reachable only without
#: regularization, where the multipliers are unbounded by design).
LAMBDA_GUARD = 1e6


class EngineError(ValueError):
    """Invalid run configuration or inconsistent dimensions."""


class DivergenceError(RuntimeError):
    """Non-finite or runaway iterates; the run is aborted with context."""


@dataclass(frozen=True)
class RunConfig:
    """Full description of one run.

    ``step_scale`` is the constant c in alpha(t) = c / sqrt(t+1); when
    None it resolves to the problem radius, capped at 1/(2 eta) so the
    regularized variants satisfy their stepsize precondition.
    ``record_every`` is the metric sampling stride. ``monitor_bounds``
    turns on warn-only theory-bound monitors at recorded iterations.
    """

    variant: str = DETERMINISTIC
    iterations: int = 10_000
    eta: float = 1.0
    step_scale: float | None = None
    seed: int = 0
    init: str = INIT_ORIGIN
    record_every: int = 10
    monitor_bounds: bool = False


def resolve_config(cfg: RunConfig, p: ProblemSpec) -> RunConfig:
    """Fill defaults and enforce the stepsize/regularization precondition."""
    if cfg.variant not in VARIANTS:
        raise EngineError(f"unknown variant {cfg.variant!r}")
    if cfg.init not in (INIT_ORIGIN, INIT_RANDOM_FEASIBLE):
        raise EngineError(f"unknown init {cfg.init!r}")
    checked_int(cfg.iterations, "iterations", 0, error=EngineError)
    checked_int(cfg.record_every, "record_every", 1, error=EngineError)
    # the seed keys Philox streams, whose key words are 64-bit
    checked_int(cfg.seed, "seed", 0, 2 ** 64, EngineError)

    if cfg.variant == STOCHASTIC and p.n_constraints == 0:
        raise EngineError("the stochastic variant needs a constraint to sample")
    if cfg.variant == CENTRALIZED_UNREGULARIZED:
        eta = 0.0
        scale = cfg.step_scale if cfg.step_scale is not None else p.radius
    else:
        eta = checked_eta(cfg.eta, EngineError)
        scale = cfg.step_scale
        if scale is None:
            scale = min(p.radius, 0.5 / eta)
        if eta * scale > 0.5 + 1e-12:
            raise EngineError(
                f"eta * alpha(0) = {eta * scale:.6g} exceeds 1/2; lower "
                "step_scale or eta")
    if not scale > 0.0:
        raise EngineError("step scale must be positive")
    return dataclasses.replace(cfg, eta=eta, step_scale=scale)


def stepsize(t: int, cfg: RunConfig) -> float:
    """alpha(t) = step_scale / sqrt(t + 1)."""
    # t keys the stochastic variant's Philox stream, whose key words are 64-bit
    t = checked_int(t, "t", 0, 2 ** 64, EngineError)
    if cfg.step_scale is None:
        raise EngineError("step_scale unresolved; call resolve_config first")
    return _alpha(t, cfg)


def _alpha(t: int, cfg: RunConfig) -> float:
    """``stepsize`` without its checks, for the run loop's checked t."""
    return cfg.step_scale / math.sqrt(t + 1.0)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def project_ball(x: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the origin-centered ball: R x / max(R, ||x||).

    ``x`` is one vector or a stack of rows, each projected on its own. The
    result is a new C-contiguous array.
    """
    if not radius > 0.0:
        raise EngineError("ball radius must be positive")
    if not x.ndim:
        raise EngineError("project_ball needs a vector or rows, got a 0-d array")
    # one C-contiguous copy: numpy runs a strided view's inner loop once
    # per row, so a column slice costs about twice as much per pass
    x = np.array(x, order="C")
    top = np.maximum.reduce(np.abs(x), axis=None, initial=0.0)
    root_d = math.sqrt(x.shape[-1])
    if top * root_d <= 0.5 * radius or math.isinf(radius):
        # every norm is at most sqrt(d) max |x_ij|, so even with rounding
        # each computed norm is inside the ball and each scale is exactly 1;
        # the infinite ball holds every row, even beside a NaN, where
        # R / max(R, ||x||) would be inf / inf
        return x
    # the d squares of entries up to ``limit`` sum to below max float / 4
    limit = 6.7e153 / root_d
    if top <= limit:
        norms = metrics.row_norms(x)
    else:  # a finite row past it takes its norm over its largest entry
        peaks = np.maximum.reduce(np.abs(x), axis=-1, keepdims=True)
        peaks[~((limit < peaks) & (peaks < math.inf))] = 1.0
        norms = metrics.row_norms(x / peaks) * peaks[..., 0]
    return x * (radius / np.maximum(radius, norms))[..., None]


def project_orthant(v: np.ndarray) -> np.ndarray:
    """Componentwise positive part."""
    return np.maximum(v, 0.0)


# ---------------------------------------------------------------------------
# agent states
# ---------------------------------------------------------------------------

@dataclass
class AgentStates:
    """Per-agent primal/dual iterates and running-average accumulators.

    Row i of each array belongs to agent i. The running average is
    avg_numerator / weight_sum once any weight has accumulated.
    """

    x: np.ndarray              # (n, d), inside the radius ball
    lam: np.ndarray            # (n, m), componentwise nonnegative
    avg_numerator: np.ndarray  # (n, d), sum of alpha(s) * x(s)
    weight_sum: float          # sum of alpha(s)

    @property
    def n_agents(self) -> int:
        return self.x.shape[0]

    def averages(self) -> np.ndarray | None:
        """Running averages, or None while no weight has accumulated."""
        if self.weight_sum <= 0.0:
            return None
        return self.avg_numerator / self.weight_sum

    def output_points(self) -> np.ndarray:
        """Averages, falling back to the current iterates at time zero."""
        avg = self.averages()
        return self.x.copy() if avg is None else avg

    def copy(self) -> "AgentStates":
        return AgentStates(self.x.copy(), self.lam.copy(),
                           self.avg_numerator.copy(), self.weight_sum)


def _sparsetools():
    """scipy's ``_sparsetools`` extension, which holds ``csr_matvecs``, the
    kernel that ``csr @ z`` ends in: loaded from its file under the name its
    init function requires, so ``import pdnet`` skips the ``scipy.sparse``
    package (about 21 MB of RSS). Never filed as ``scipy.sparse._sparsetools``,
    which would break that package; without the file, the package's own
    copy gives the same kernel."""
    scipy = importlib.util.find_spec("scipy")
    for folder in (scipy and scipy.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location("_sparsetools", path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module
    from scipy.sparse import _sparsetools
    return _sparsetools


_csr_matvecs = _sparsetools().csr_matvecs


def _mix(w, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # W @ rows for a ConsensusMatrix or csr_array ``w``, without the
    # operator's dispatch: the kernel sums each row's nonzeros in a fixed
    # order without BLAS, so results do not depend on the thread count.
    # The kernel accumulates into ``out``, a C-contiguous (n, k) array if
    # given, which is zeroed first
    n, k = rows.shape
    if out is None:
        out = np.zeros((n, k))
    else:
        out.fill(0.0)
    _csr_matvecs(n, n, k, w.indptr, w.indices, w.data, rows.ravel(),
                 out.ravel())
    return out


def initial_states(p: ProblemSpec, cfg: RunConfig) -> AgentStates:
    """x_i(0) at the origin or a random feasible point, and lam_i(0) = 0:
    one row per agent, or one row for the centralized baseline."""
    n = 1 if cfg.variant == CENTRALIZED_UNREGULARIZED else p.n_agents
    d = p.dim
    x0 = (np.zeros((n, d)) if cfg.init == INIT_ORIGIN
          else _random_feasible_points(p, cfg.seed, n))
    return AgentStates(x=x0, lam=np.zeros((n, p.n_constraints)),
                       avg_numerator=np.zeros((n, d)), weight_sum=0.0)


def _random_feasible_points(p: ProblemSpec, seed: int, n: int) -> np.ndarray:
    """One sphere sample per row, each scaled into the feasible set by
    bisection towards the origin; all rows bisect together. Row i's normals
    are those of ``Generator(Philox(key=[seed, 2**63 + i]))``."""
    if np.any(p.constraint_values(np.zeros(p.dim)) > 0.0):
        raise EngineError("random_feasible init needs a feasible origin")
    stream = uniform_stream()
    v = np.empty((n, p.dim))
    for agent in range(n):
        v[agent] = rekeyed(stream, seed, 2 ** 63 + agent).normal(size=p.dim)
        v[agent] *= p.radius / max(float(np.linalg.norm(v[agent])), 1e-300)

    def feasible(c: np.ndarray) -> np.ndarray:
        return np.all(p.constraint_values_many(c[:, None] * v) <= 0.0, axis=1)

    lo, hi = np.zeros(n), np.ones(n)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = feasible(mid)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return np.where(feasible(np.ones(n))[:, None], v, lo[:, None] * v)


# ---------------------------------------------------------------------------
# one synchronous step
# ---------------------------------------------------------------------------

def _directions(p: ProblemSpec, states: AgentStates, cfg: RunConfig,
                t: int | None = None, stream: np.random.Generator | None = None):
    """Primal and dual directions at the iteration-t snapshot.

    The one function for every variant. The centralized baseline's one row
    takes the gradient of the mean objective f = (1/n) sum f_i. The
    stochastic variant samples one constraint index per agent for
    ``primal_directions``, and samples nothing when t is None, as at the
    horizon record. ``stream`` is the run's ``uniform_stream``, re-keyed
    for each iteration. The dual direction g - eta lam is the same for
    every variant.
    """
    x, lam = states.x, states.lam
    if cfg.variant == CENTRALIZED_UNREGULARIZED:
        grad_f = p.mean_objective_grad(x[0])[1][None, :]
    else:
        grad_f = p.agent_objective_grads(x)
    ks = totals = None
    if cfg.variant == STOCHASTIC and t is not None:
        totals = np.add.reduce(lam, axis=1)
        uniforms = iteration_uniforms(cfg.seed, t, states.n_agents, stream)
        ks = sample_constraint_indices(lam, uniforms, totals)
    return (primal_directions(p, x, lam, grad_f, ks, totals),
            p.constraint_values_many(x) - cfg.eta * lam)


def _advance(states: AgentStates, p: ProblemSpec, w: ConsensusMatrix, t: int,
             cfg: RunConfig, grad_x: np.ndarray, grad_lam: np.ndarray,
             work: tuple[np.ndarray, np.ndarray] | None = None) -> AgentStates:
    """The states at t + 1. ``work``, two C-contiguous (rows, d + m)
    arrays that the step overwrites, holds the mixed operand and its mix,
    so a run allocates them once; the new states never share their memory."""
    alpha = _alpha(t, cfg)
    alpha_next = _alpha(t + 1, cfg)
    y = states.x - alpha * grad_x
    gamma = states.lam + alpha * grad_lam
    joined, mixed = (None, None) if work is None else work
    z = np.concatenate((y, gamma), axis=1, out=joined)
    # a non-finite entry, or an overflow, makes the sum non-finite
    if not math.isfinite(np.add.reduce(z, axis=None)):
        _check_finite(y, gamma, t)
    # the baseline's 1x1 identity computes 0.0 + 1.0 z, which is z + 0.0
    mixed = (np.add(z, 0.0, out=mixed) if w is _IDENTITY_1X1
             else _mix(w, z, mixed))
    d = y.shape[1]
    new_x = project_ball(mixed[:, :d], p.radius)
    new_lam = project_orthant(mixed[:, d:])
    _check_dual_guard(new_lam, t)

    num = states.avg_numerator
    wsum = states.weight_sum
    if wsum == 0.0:
        # seed the window with the starting point at weight alpha(t)
        num = num + alpha * states.x
        wsum += alpha
    num = num + alpha_next * new_x
    wsum += alpha_next
    return AgentStates(x=new_x, lam=new_lam, avg_numerator=num, weight_sum=wsum)


def _check_dual_guard(lam: np.ndarray, t: int) -> None:
    """Raise DivergenceError if a row norm of ``lam`` (>= 0) exceeds
    LAMBDA_GUARD, naming the first such agent."""
    # a row norm is at most sqrt(m) times the largest entry, so the norms
    # are needed only when that bound comes near the guard; with the guard
    # at 1e6 every step of a converging run returns here
    if (np.maximum.reduce(lam, axis=None, initial=0.0)
            * math.sqrt(lam.shape[1]) <= 0.5 * LAMBDA_GUARD):
        return
    norms = metrics.row_norms(lam)
    over = norms > LAMBDA_GUARD
    if over.any():
        agent = int(np.argmax(over))
        raise DivergenceError(
            f"dual norm {norms[agent]:.3e} exceeded the guard at t={t}: "
            f"lam of agent {agent}")


def _check_finite(x: np.ndarray, lam: np.ndarray, t: int) -> None:
    """Raise DivergenceError naming the iteration, the first agent with a
    non-finite row and the component (``x`` or ``lam``) it is in.

    Checked before mixing, so the named agent is the one whose own update
    blew up rather than a neighbor it spread to.
    """
    for name, rows in (("x", x), ("lam", lam)):
        finite = np.isfinite(rows)
        if not finite.all():
            agent = int(np.argmin(finite.all(axis=1)))
            raise DivergenceError(f"non-finite {name} at t={t}, agent {agent}")


def step(states: AgentStates, p: ProblemSpec, w: ConsensusMatrix | None,
         t: int, cfg: RunConfig) -> AgentStates:
    """One synchronous step of ``cfg.variant`` from the iteration-t snapshot.

    ``cfg`` is resolved and checked as ``run`` does it. The centralized
    baseline does not read ``w`` and takes exactly one row.
    """
    w, cfg = _checked_call(p, w, cfg, states)
    t = checked_int(t, "t", 0, 2 ** 64, EngineError)  # before the sample
    return _advance(states, p, w, t, cfg, *_directions(p, states, cfg, t))


_IDENTITY_1X1 = ConsensusMatrix.from_entries(np.ones((1, 1)))


def _checked_call(p: ProblemSpec, w: ConsensusMatrix | None, cfg: RunConfig,
                  states: AgentStates | None = None
                  ) -> tuple[ConsensusMatrix, RunConfig]:
    """The matrix that mixes the call's rows, and ``cfg`` resolved: the
    baseline's one row takes the 1x1 identity, whose mix ``_advance``
    skips, the networked variants' one row per agent ``w``. The ``states``
    that ``step`` passes must have x and avg_numerator of shape (rows, d)
    and lam of (rows, m)."""
    cfg = resolve_config(cfg, p)
    rows = p.n_agents
    if cfg.variant == CENTRALIZED_UNREGULARIZED:
        rows, w = 1, _IDENTITY_1X1
    if states is not None:
        for name in ("x", "lam"):
            if np.ndim(getattr(states, name)) != 2:
                raise EngineError(f"states.{name} must be 2-d (rows, columns), "
                                  f"got shape {np.shape(getattr(states, name))}")
    n = rows if states is None else states.n_agents
    if w is None or w.n != n:
        got = "missing" if w is None else f"{w.n}x{w.n}"
        raise EngineError(f"mixing matrix is {got} but the states have {n} rows "
                          f"(the problem has {p.n_agents} agents)")
    if states is not None:
        for name, cols in (("x", p.dim), ("lam", p.n_constraints),
                           ("avg_numerator", p.dim)):
            shape = getattr(states, name).shape
            if shape != (rows, cols):
                raise EngineError(f"states.{name} is {shape}, not {(rows, cols)}")
    return w, cfg


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

@dataclass
class Trace:
    """Recorded metrics plus the initial and final agent states.

    ``weights`` is the run's mixing matrix. ``warnings`` holds one line
    per theory bound that a monitored run exceeded: how many records
    exceeded it, the first t, and the worst value against its bound.
    ``records_s`` is the wall time spent in ``metrics.compute_record``,
    which the run calls once per chunk of records, not once per record.
    """

    records: list[IterationRecord]
    initial_states: AgentStates
    final_states: AgentStates
    config: RunConfig
    weights: ConsensusMatrix = field(repr=False)
    aborted: str | None = None
    warnings: list[str] = field(default_factory=list)
    records_s: float = 0.0

    @property
    def sigma2(self) -> float:
        """sigma_2 of the run's mixing matrix, computed on first read."""
        return self.weights.sigma2

    def to_csv_text(self) -> str:
        lines = [",".join(metrics.CSV_COLUMNS)]
        lines += [metrics.record_csv_row(r) for r in self.records]
        return "\n".join(lines) + "\n"


def run(p: ProblemSpec, w: ConsensusMatrix | None, cfg: RunConfig,
        reference: ReferenceSolution | None = None) -> Trace:
    """Run the configured primal-dual variant for cfg.iterations steps.

    Every variant runs here; the centralized baseline does not read ``w``.
    Records are taken at t = 0, every ``record_every`` iterations and the
    horizon; a reference optimum adds the relative error and rate-bound
    columns. A diverged run returns its partial trace, ``aborted`` set.
    """
    return _run_loop(p, *_checked_call(p, w, cfg), reference)


def run_centralized_unregularized(p: ProblemSpec, cfg: RunConfig,
                                  reference: ReferenceSolution | None = None) -> Trace:
    """``run(p, None, cfg, reference)`` for a baseline config, kept only
    while the benchmark's ``canonical`` workload calls this name and its
    tracer hooks it. It skips ``run``, so a traced run is one span.
    """
    if cfg.variant != CENTRALIZED_UNREGULARIZED:
        raise EngineError("config variant must be centralized_unregularized")
    return _run_loop(p, *_checked_call(p, None, cfg), reference)


def _run_loop(p: ProblemSpec, w: ConsensusMatrix, cfg: RunConfig,
              reference: ReferenceSolution | None) -> Trace:
    # no step writes into the states it reads: the trace keeps the t = 0 ones
    states = initial_states(p, cfg)
    initial_fgaps, initial_gnorms = metrics.initial_normalizers(p, states,
                                                                reference)
    trace = Trace(records=[], initial_states=states, final_states=states,
                  config=cfg, weights=w)
    exceeded: dict[str, list] = {}
    # only the rate bound, which needs the reference, reads sigma2
    sigma2 = math.nan if reference is None else w.sigma2
    # snapshots are references: no step writes into the arrays it reads
    per_chunk = metrics.snapshots_per_chunk(states)
    pending: list[metrics.Snapshot] = []

    def flush():
        start = time.perf_counter()
        trace.records += metrics.compute_record(
            p, pending, cfg.eta, sigma2, ref=reference,
            initial_fgaps=initial_fgaps, initial_gnorms=initial_gnorms)
        trace.records_s += time.perf_counter() - start
        pending.clear()

    def keep(*snapshot):
        pending.append(metrics.Snapshot(*snapshot))
        if len(pending) == per_chunk:
            flush()

    stream = uniform_stream() if cfg.variant == STOCHASTIC else None
    # the step's operand and its mix, reused by every step: two views of
    # one block (at n = 100, two blocks raised peak RSS by 0.06 MB)
    work = tuple(np.empty((2, states.n_agents, p.dim + p.n_constraints)))
    try:
        for t in range(cfg.iterations):
            grad_x, grad_lam = _directions(p, states, cfg, t, stream)
            if t % cfg.record_every == 0:
                keep(t, states, grad_x, grad_lam)
            states = _advance(states, p, w, t, cfg, grad_x, grad_lam, work)
    except DivergenceError as exc:
        trace.aborted = str(exc)
        log.error("run aborted: %s", exc)
    else:
        # no constraint is sampled at the horizon: record the full directions
        keep(cfg.iterations, states, *_directions(p, states, cfg))
    if pending:
        flush()
    trace.final_states = states
    for rec in trace.records if cfg.monitor_bounds else ():
        _monitor_record(exceeded, p, cfg, w, rec, reference)
    for name, (count, first_t, value, bound) in exceeded.items():
        msg = (f"{name} exceeded at {count} records from t={first_t}, "
               f"worst {value:.6g} > {bound:.6g}")
        trace.warnings.append(msg)
        log.warning("%s", msg)
    return trace


def bound_checks(p: ProblemSpec, cfg: RunConfig, sigma2: float,
                 rec: IterationRecord,
                 reference: ReferenceSolution | None) -> list[tuple[str, float, float]]:
    """(name, value, bound) for every theory bound that applies to a record.

    Empty without regularization, where the multipliers are unbounded. The
    callers choose their own tolerance.
    """
    if cfg.eta <= 0.0:
        return []
    checks = [
        ("multiplier norm bound", rec.sum_lambda_sq,
         metrics.lambda_norm_bound(p, cfg.eta)),
        ("primal subgradient bound", rec.max_grad_x_norm,
         metrics.grad_x_norm_bound(p, cfg.eta)),
        ("dual subgradient bound", rec.max_grad_lambda_excess,
         metrics.grad_lambda_excess_bound(p)),
    ]
    if rec.t >= 1:
        checks.append(("consensus distance bound", rec.consensus_diameter,
                       metrics.consensus_bound(p, sigma2, cfg.eta,
                                               max(cfg.iterations, 2),
                                               stepsize(rec.t, cfg))))
    if reference is not None and not math.isnan(rec.thm2_bound):
        checks.append(("convergence rate bound", rec.max_gap,
                       rec.thm2_bound + reference.residual + 1e-4))
    return checks


def _monitor_record(exceeded: dict[str, list], p: ProblemSpec, cfg: RunConfig,
                    w: ConsensusMatrix, rec: IterationRecord,
                    reference: ReferenceSolution | None) -> None:
    """Warn-only theory-bound monitors (hard assertions live in the tests).

    ``exceeded`` maps each check that fired to [count, first t, worst
    value, its bound], worst meaning the largest excess over the bound.
    """
    tol = 1e-9
    for name, value, bound in bound_checks(p, cfg, w.sigma2, rec, reference):
        if not math.isnan(value) and value > bound * (1.0 + tol) + tol:
            entry = exceeded.setdefault(name, [0, rec.t, value, bound])
            entry[0] += 1
            if value - bound > entry[2] - entry[3]:
                entry[2:] = [value, bound]
