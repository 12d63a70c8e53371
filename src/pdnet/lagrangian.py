"""Regularized Lagrangian values, subgradients, and constraint sampling.

The Lagrangian of agent i is f_i(x) + <lam, g(x)> - (eta/2) ||lam||^2; the
quadratic term keeps the multiplier norms bounded. The stochastic variant
replaces the full constraint-gradient sum with a single sampled constraint
scaled by ||lam||_1, which is an exact unbiased estimate under the
multiplier-proportional sampling distribution.
"""

from __future__ import annotations

import numpy as np

from .problems import ProblemSpec, ProblemError, checked_int

#: The regularization strengths eta accepted anywhere. The theory-bound
#: formulas square eta and 1/eta, so a value outside this range overflows
#: them.
ETA_RANGE = (1e-100, 1e100)


def validate_dual(lam: np.ndarray) -> np.ndarray:
    """Check that a multiplier vector is finite and in the nonnegative orthant."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1:
        raise ProblemError(f"multiplier vector must be 1-D, got shape {lam.shape}")
    if not np.all((0.0 <= lam) & (lam < np.inf)):
        raise ProblemError("multiplier vector has negative or non-finite components")
    return lam


def _checked_dual(p: ProblemSpec, lam: np.ndarray) -> np.ndarray:
    """A valid multiplier vector with one entry per constraint of p."""
    lam = validate_dual(lam)
    if len(lam) != p.n_constraints:
        raise ProblemError("multiplier dimension does not match constraint count")
    return lam


def checked_eta(eta: float, error: type[ValueError] = ProblemError) -> float:
    """``eta`` if it lies in ETA_RANGE; ``error`` otherwise."""
    if not ETA_RANGE[0] <= eta <= ETA_RANGE[1]:
        raise error(f"eta = {eta:g} is outside "
                    f"[{ETA_RANGE[0]:g}, {ETA_RANGE[1]:g}]")
    return eta


def lagrangian_value(p: ProblemSpec, agent: int, x: np.ndarray,
                     lam: np.ndarray, eta: float) -> float:
    """f_i(x) + <lam, g(x)> - (eta/2) ||lam||^2."""
    lam = _checked_dual(p, lam)
    eta = checked_eta(eta)
    fval, _ = p.objective(agent, x)
    g = p.constraint_values(x)
    return float(fval + lam @ g - 0.5 * eta * float(lam @ lam))


def primal_directions(p: ProblemSpec, x_rows: np.ndarray,
                      lam_rows: np.ndarray, grad_f: np.ndarray,
                      ks: np.ndarray | None = None,
                      totals: np.ndarray | None = None) -> np.ndarray:
    """Primal subgradients of the Lagrangians, one row per agent.

    Row i is grad_f[i] + sum_k lam[i, k] grad g_k(x_i). Given sampled
    indices ``ks``, the sum becomes ||lam_i||_1 grad g_{k_i}(x_i), its
    unbiased estimate when k_i is drawn from ``sampling_distribution``.
    ``totals`` are the row sums of ``lam_rows`` if the caller has them.
    """
    if ks is None:
        return grad_f + p.agent_constraint_combo(x_rows, lam_rows)
    totals = np.add.reduce(lam_rows, axis=1) if totals is None else totals
    return grad_f + totals[:, None] * p.agent_constraint_rows(x_rows, ks)


def grad_x(p: ProblemSpec, agent: int, x: np.ndarray,
           lam: np.ndarray) -> np.ndarray:
    """Primal subgradient: grad f_i(x) + sum_k lam_k grad g_k(x)."""
    lam = _checked_dual(p, lam)
    _, gf = p.objective(agent, x)
    return primal_directions(p, x[None, :], lam[None, :], gf[None, :])[0]


def grad_lambda(p: ProblemSpec, x: np.ndarray, lam: np.ndarray,
                eta: float) -> np.ndarray:
    """Dual gradient: g(x) - eta * lam."""
    lam = _checked_dual(p, lam)
    return p.constraint_values(x) - checked_eta(eta) * lam


def sampling_distribution(lam: np.ndarray) -> np.ndarray:
    """Constraint-sampling probabilities proportional to the multipliers.

    p_k = lam_k / ||lam||_1 when the multipliers carry any mass, uniform
    otherwise (the exact-zero vector produced by orthant projection).
    """
    lam = validate_dual(lam)
    if len(lam) == 0:
        raise ProblemError("no constraint to sample: the multiplier vector is empty")
    return _sampling_probabilities(lam[None, :], np.add.reduce(lam)[None])[0]


def stochastic_grad_x(p: ProblemSpec, agent: int, x: np.ndarray,
                      lam: np.ndarray, k: int) -> np.ndarray:
    """Sampled primal subgradient: grad f_i(x) + ||lam||_1 grad g_k(x)."""
    lam = _checked_dual(p, lam)
    k = checked_int(k, "constraint index", 0, p.n_constraints)
    _, gf = p.objective(agent, x)
    return primal_directions(p, x[None, :], lam[None, :], gf[None, :],
                             np.array([k]))[0]


# ---------------------------------------------------------------------------
# counter-based sampling streams
# ---------------------------------------------------------------------------

def uniform_stream() -> np.random.Generator:
    """A Philox generator for ``rekeyed`` to re-key.

    Make one per run, or per thread: re-keying changes its state in place.
    """
    return np.random.Generator(np.random.Philox(key=0))


def rekeyed(stream: np.random.Generator, k0: int, k1: int) -> np.random.Generator:
    """``stream`` set to Philox key (k0, k1) with a zero counter and an
    empty buffer, which is the state ``Generator(Philox(key=[k0, k1]))``
    starts in, without building one."""
    stream.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (k0, k1)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return stream


def iteration_uniforms(seed: int, t: int, n: int,
                       stream: np.random.Generator | None = None) -> np.ndarray:
    """One uniform per agent for iteration t, from a counter-based stream.

    Keyed by (run seed, iteration); agent i consumes entry i. Independent
    of scheduling and parallelism, so runs replay bit-identically. The
    bits are those of ``Generator(Philox(key=[seed, t])).random(n)``, drawn
    from ``stream`` (from ``uniform_stream``, a fresh one when None).
    """
    return rekeyed(stream or uniform_stream(), seed, t).random(n)


def _sampling_probabilities(lam_rows: np.ndarray,
                            totals: np.ndarray) -> np.ndarray:
    """Each row's multipliers over their sum ``totals``, or uniform where
    the row is 0."""
    totals = totals[:, None]
    if np.minimum.reduce(totals, axis=None) > 0.0:
        return lam_rows / totals
    positive = totals > 0.0
    return np.where(positive, lam_rows / np.where(positive, totals, 1.0),
                    1.0 / lam_rows.shape[1])


def sample_constraint_indices(lam_rows: np.ndarray, uniforms: np.ndarray,
                              totals: np.ndarray | None = None) -> np.ndarray:
    """Draw one constraint index per agent from its sampling distribution;
    ``totals`` are the row sums of ``lam_rows``, if the caller has them."""
    totals = np.add.reduce(lam_rows, axis=1) if totals is None else totals
    # np.add.accumulate is what np.cumsum calls, without its wrapper
    cumulative = np.add.accumulate(_sampling_probabilities(lam_rows, totals),
                                   axis=1)
    # the sums are nondecreasing, so the entries <= u are a prefix and a
    # count over the first m - 1 columns is the index capped at m - 1
    return np.add.reduce(cumulative[:, :-1] <= uniforms[:, None], axis=1)
