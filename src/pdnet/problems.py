"""Constrained problem instances: objectives, shared constraints, references.

A ProblemSpec bundles batched evaluation of the per-agent objectives and
the shared constraints with the Lipschitz/radius metadata the algorithms
rely on; ``ProblemSpec.from_oracles`` wraps bare per-point oracles. The two
built-in families are box-constrained logistic and hinge regression on
synthetic unit-sphere data. A centralized projected-gradient solver with
exact projection onto box intersect ball provides the certified reference
optimum used to normalize error metrics.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

#: Entries per temporary in ``mean_objective_many``: each block holds as
#: many points as fit this many point x data-point values.
MEAN_OBJECTIVE_BLOCK = 1 << 16

#: The most 8-byte entries one numpy array can hold; a dataset or graph
#: needing more cannot be allocated at all.
MAX_ARRAY_ENTRIES = np.iinfo(np.intp).max // 8

try:  # the compiled kernel that ``np.einsum`` forwards to when it does not
    # optimize, its default: the same bits without the wrapper's dispatch
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum


@np.errstate(over="ignore")  # as a decorator it costs half the with-block
def _over_one_plus_exp(numerator, t: np.ndarray) -> np.ndarray:
    """numerator / (1 + exp(t)), the logistic function at -t times
    ``numerator``. Past t = 709.78 exp(t) is inf and the quotient an exact
    signed 0, which numpy would otherwise report as an overflow."""
    e = np.exp(t)
    e += 1.0
    return np.divide(numerator, e, out=e)


class ProblemError(ValueError):
    """Invalid problem construction or dimension mismatch."""


class ReferenceError(RuntimeError):
    """The reference solver failed to certify the requested accuracy."""


def checked_int(value, what: str, low: int, high: int | None = None,
                error: type[ValueError] = ProblemError) -> int:
    """``value`` as an int if it is a Python or numpy integer, not a bool,
    in [low, high) (no upper bound when ``high`` is None); ``error`` if not."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        value = int(value)
        if low <= value and (high is None or value < high):
            return value
    bound = f">= {low}" if high is None else f"in [{low}, {high})"
    raise error(f"{what} {value!r} is not an integer {bound}")


def check_size(count: int, what: str,
               error: type[ValueError] = ProblemError) -> None:
    """``error`` when ``count`` entries do not fit in one numpy array."""
    if count > MAX_ARRAY_ENTRIES:
        raise error(f"{what} = {count} exceeds the {MAX_ARRAY_ENTRIES} "
                    "entries a numpy array can hold")


@dataclass(frozen=True, eq=False)
class SyntheticDataset:
    """Unit-sphere features with labels in {-1, +1}.

    ``ground_truth_w`` is the Gaussian vector that generated the labels; it
    is None for datasets built from given arrays.
    """

    features: np.ndarray          # (n, d), rows have unit norm
    labels: np.ndarray            # (n,) values in {-1, +1}
    ground_truth_w: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def generate_dataset(n: int, d: int, seed: int = 0) -> SyntheticDataset:
    """Sample n unit-sphere feature vectors and Bernoulli labels.

    Features are normalized Gaussians; the label of sample i is +1 with
    probability 1/(1 + exp(<w, a_i>)) for a standard Gaussian w, else -1.
    Deterministic per seed.
    """
    n, d = checked_int(n, "n", 1), checked_int(d, "d", 1)
    check_size(n * d, "n * d")
    rng = np.random.default_rng(checked_int(seed, "seed", 0))
    a = rng.normal(size=(n, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    w = rng.normal(size=d)
    p_plus = _over_one_plus_exp(1.0, a @ w)
    b = np.where(rng.random(n) < p_plus, 1.0, -1.0)
    return SyntheticDataset(features=a, labels=b, ground_truth_w=w)


# ---------------------------------------------------------------------------
# problem specification
# ---------------------------------------------------------------------------

class _LossBoxOps:
    """Vectorized evaluation for data-point losses with box constraints."""

    def __init__(self, features: np.ndarray, labels: np.ndarray,
                 lower: np.ndarray, upper: np.ndarray, loss: str):
        self.features = features
        self.labels = labels
        self.lower = lower
        self.upper = upper
        self.loss = loss
        self.dim = features.shape[1]
        # row j is -b_j a_j, so one product gives the negated margins
        self._neg_signed = -(labels[:, None] * features)

    def for_agent(self, agent: int) -> "_LossBoxOps":
        """The ops of agent ``agent``'s data point alone, with the same
        constraints: a one-agent problem."""
        one = slice(agent, agent + 1)
        return _LossBoxOps(self.features[one], self.labels[one], self.lower,
                           self.upper, self.loss)

    # built on first use: the sampled constraint rows by the stochastic
    # variant, the rest by records with a reference

    @functools.cached_property
    def _constraint_grads(self) -> np.ndarray:
        """Row k is grad g_k: -e_k for the lower bounds, then +e_k."""
        d = self.dim
        grads = np.zeros((2 * d, d))
        grads[np.arange(2 * d), np.tile(np.arange(d), 2)] = (
            np.repeat([-1.0, 1.0], d))
        return grads

    @functools.cached_property
    def _columns(self) -> np.ndarray:
        """Column k of the features, contiguous, for the objective kernel."""
        return np.ascontiguousarray(self.features.T)

    @functools.cached_property
    def _reach(self) -> float:
        """A >= max ||b_j a_j||: the norm rounded up past its own rounding."""
        f = self.features
        norms = np.abs(self.labels) * np.sqrt(np.add.reduce(f * f, axis=1))
        eps = float(np.finfo(f.dtype).eps)
        return float(norms.max()) * (1.0 + 4 * (self.dim + 2) * eps)

    @functools.cached_property
    def _curvature(self) -> float:
        """beta >= the largest eigenvalue of the mean logistic loss's
        Hessian, (1/n) sum_j l''(z_j) b_j^2 a_j a_j^T with l'' <= 1/4: a
        quarter of the top eigenvalue of M = (1/n) sum_j b_j^2 a_j a_j^T,
        at most A^2 / 4. It is taken from the smaller of M and the n x n
        Gram matrix, which share their nonzero eigenvalues, and rounded up
        past the error of both products and of the eigensolve, each below
        (n + d) eps A^2."""
        a = self._neg_signed  # the sign leaves the Gram matrix as it is
        n, d = a.shape
        gram = a.T @ a if d <= n else a @ a.T
        top = float(np.linalg.eigvalsh(gram)[-1]) / n
        eps = float(np.finfo(a.dtype).eps)
        return (top + 4 * (n + d + 8) * eps * self._reach * self._reach) / 4

    def _loss_values(self, z: np.ndarray) -> np.ndarray:
        """Per-term loss value at z = b <a, x>."""
        if self.loss == "logistic":
            return np.logaddexp(0.0, z)
        return np.maximum(0.0, 1.0 - z)

    def _signed_slopes(self, t: np.ndarray) -> np.ndarray:
        """Per-term b * d(loss)/dz at z = b <a, x> = -t: the factor of a in
        the term's gradient. As b = +-1, the logistic one,
        b / (1 + exp(-z)), is exactly b times 1 / (1 + exp(-z))."""
        if self.loss == "logistic":
            return _over_one_plus_exp(self.labels, t)
        return self.labels * np.where(t > -1.0, -1.0, 0.0)

    def _neg_margins(self, x_rows: np.ndarray) -> np.ndarray:
        """t_i = -b_i <a_i, x_i>, one per agent. Negating every product
        negates the sum exactly, so -t is the margin z."""
        return _einsum("id,id->i", self._neg_signed, x_rows)

    def agent_objective_grads(self, x_rows: np.ndarray) -> np.ndarray:
        slopes = self._signed_slopes(self._neg_margins(x_rows))
        return slopes[:, None] * self.features

    def agent_objective_values(self, x_rows: np.ndarray) -> np.ndarray:
        return self._loss_values(-self._neg_margins(x_rows))

    def mean_objective_many(self, points: np.ndarray) -> np.ndarray:
        """Mean loss at each point, by a fixed-order kernel without BLAS.

        z = b * sum_k p[:, k, None] * a[None, :, k] is accumulated for
        k = 0..d-1 by elementwise products and sums, then the loss and its
        mean over the data points are taken row by row. A row's bits so
        depend only on that row: not on the other points, the block size
        or the BLAS thread count.
        """
        rows = max(1, MEAN_OBJECTIVE_BLOCK // len(self.labels))
        out = np.empty(len(points))
        for start in range(0, len(points), rows):
            out[start:start + rows] = self._mean_losses(points[start:start + rows])
        return out

    def _mean_losses(self, block: np.ndarray) -> np.ndarray:
        z = block[:, 0, None] * self._columns[0]
        for k in range(1, self.dim):
            z += block[:, k, None] * self._columns[k]
        z *= self.labels
        # np.mean's bits: the sum, then one division by the count
        return np.add.reduce(self._loss_values(z), axis=1) / z.shape[1]

    def mean_objective_grad(self, x: np.ndarray):
        t = self._neg_signed @ x
        # np.mean's bits (the sum, then one division) without its wrapper:
        # the reference solve calls this on every trial step
        return float(np.add.reduce(self._loss_values(-t)) / len(t)), \
            self.features.T @ self._signed_slopes(t) / len(t)

    def mean_objective_bracket(self, points: np.ndarray):
        """(lower, upper) around ``mean_objective_many`` at each row of
        each (n, d) block of the stack ``points`` (R, n, d).

        With c a block's mean point, and f(c) and its gradient g, f(y) >=
        f(c) + <g, y - c> by convexity. Above, the logistic loss adds
        beta/2 ||y - c||^2 with beta from ``_curvature``, at most A^2 / 4
        for A >= max ||b_j a_j||. The hinge is affine where every margin
        b_j <a_j, y> is at most 1, so it adds only max(0, A ||y|| - 1),
        which is 0 on the unit ball when A <= 1. Its g is the affine
        gradient only when every margin at c is below 1, so a center too
        close to the sphere gives that block (-inf, inf), as do non-finite
        bounds.

        Both bounds then widen by a rounding slack. Each sum in the kernel
        and in f(c) and g carries at most n + d + 2 roundings, with n the
        data count: the d products and sums of a margin, the label, the
        loss (a few ulps, with slope at most 1), an n-term sum in any order
        (so BLAS may compute them) and its division; the bracket adds its
        own d-term products and sums. Each is a relative error of the
        magnitudes involved: the value, the linear and quadratic terms and
        the margins, at most A (||c|| + max r) (1 + A max r). The factor 4
        covers the sum of these terms and their own rounding; products
        that underflow add an absolute error below (n + d + 8) tiny.
        """
        n, d = len(self.labels), self.dim
        finfo = np.finfo(points.dtype)
        centers = np.add.reduce(points, axis=1) / points.shape[1]
        c_norm = np.sqrt(np.add.reduce(centers * centers, axis=1))
        t = centers @ self._neg_signed.T
        value = np.add.reduce(self._loss_values(-t), axis=1) / n
        grad = self._signed_slopes(t) @ self.features / n
        diff = points - centers[:, None]
        linear = np.einsum("rnd,rd->rn", diff, grad) + value[:, None]
        r_sq = np.add.reduce(np.multiply(diff, diff, out=diff), axis=2)
        r_max = np.sqrt(np.maximum.reduce(r_sq, axis=1))
        y_max = c_norm + r_max
        logistic = self.loss == "logistic"
        beta = self._curvature if logistic else 0.0
        scale = (np.abs(value) + np.sqrt(np.add.reduce(grad * grad, axis=1))
                 * r_max + beta * r_max * r_max
                 + self._reach * y_max * (1.0 + self._reach * r_max))
        slack = (4.0 * (n + d + 8) * float(finfo.eps) * scale
                 + (n + d + 8) * float(finfo.tiny))[:, None]
        if logistic:
            curvature = 0.5 * beta * r_sq
        else:
            curvature = np.maximum(0.0, self._reach * y_max - 1.0)[:, None]
        lower, upper = linear - slack, linear + curvature + slack
        none = ~np.isfinite(scale * (n + d + 8))
        if not logistic:
            none |= ~(self._reach * c_norm < 1.0 - 4 * (d + 2) * finfo.eps)
        lower[none], upper[none] = -np.inf, np.inf
        return lower, upper

    def constraint_values_many(self, points: np.ndarray) -> np.ndarray:
        d = self.dim
        out = np.empty((len(points), 2 * d))
        np.subtract(self.lower, points, out=out[:, :d])
        np.subtract(points, self.upper, out=out[:, d:])
        return out

    def agent_constraint_combo(self, x_rows: np.ndarray, lam_rows: np.ndarray):
        d = self.dim
        return lam_rows[:, d:] - lam_rows[:, :d]

    def agent_constraint_rows(self, x_rows: np.ndarray, ks: np.ndarray):
        return self._constraint_grads[ks]


class OracleOps:
    """Batched evaluation by looping over per-point oracles.

    ``objectives[i]`` and ``constraints[k]`` map a point to (value,
    subgradient). This is the generic path for problems given as bare
    callables, and the reference for the methods every ops object has.
    """

    def __init__(self, objectives, constraints):
        self.objectives = tuple(objectives)
        self.constraints = tuple(constraints)

    def for_agent(self, agent: int) -> "OracleOps":
        """The ops of agent ``agent``'s objective alone, with the same
        constraints: a one-agent problem."""
        return OracleOps(self.objectives[agent:agent + 1], self.constraints)

    def agent_objective_grads(self, x_rows: np.ndarray) -> np.ndarray:
        grads = np.empty_like(x_rows)
        for i, f in enumerate(self.objectives):
            grads[i] = f(x_rows[i])[1]
        return grads

    def agent_objective_values(self, x_rows: np.ndarray) -> np.ndarray:
        return np.array([f(x)[0] for f, x in zip(self.objectives, x_rows)],
                        dtype=float)

    def mean_objective_many(self, points: np.ndarray) -> np.ndarray:
        n = len(self.objectives)
        return np.array([sum(f(x)[0] for f in self.objectives) / n
                         for x in points])

    def mean_objective_grad(self, x: np.ndarray):
        total, grad = 0.0, np.zeros(len(x))
        for f in self.objectives:
            v, g = f(x)
            total += v
            grad += g
        n = len(self.objectives)
        return total / n, grad / n

    def mean_objective_bracket(self, points: np.ndarray):
        """(-inf, inf) everywhere: bare oracles have no curvature bound."""
        return np.full(points.shape[:2], -np.inf), np.full(points.shape[:2], np.inf)

    def constraint_values_many(self, points: np.ndarray) -> np.ndarray:
        return np.array([[g(x)[0] for g in self.constraints] for x in points])

    def agent_constraint_combo(self, x_rows: np.ndarray, lam_rows: np.ndarray):
        out = np.zeros_like(x_rows)
        for i in range(x_rows.shape[0]):
            for k, g in enumerate(self.constraints):
                lam = lam_rows[i, k]
                if lam != 0.0:
                    out[i] += lam * g(x_rows[i])[1]
        return out

    def agent_constraint_rows(self, x_rows: np.ndarray, ks: np.ndarray):
        return np.array([self.constraints[k](x)[1] for k, x in zip(ks, x_rows)])


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Batched problem oracles plus the metadata the algorithms rely on.

    ``ops`` evaluates the per-agent objectives and the shared constraints
    for many points at once, through the methods of ``OracleOps``; the
    single-point methods are derived from them. All subgradient norms are
    bounded by ``lipschitz`` on the origin-centered ball of the given
    ``radius``, which contains the feasible set. ``box`` holds (lower,
    upper) bound vectors when the constraints form a box, enabling exact
    feasible-set projection.
    """

    dim: int
    n_constraints: int
    n_agents: int
    ops: object
    lipschitz: float
    radius: float
    box: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_oracles(cls, objectives, constraints, *, dim: int,
                     lipschitz: float, radius: float,
                     box: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> "ProblemSpec":
        """A problem from per-agent objective and shared constraint oracles.

        Each oracle maps a point to (value, subgradient); the agent and
        constraint counts are the lengths of the two sequences.
        """
        ops = OracleOps(objectives, constraints)
        return cls(dim=dim, n_constraints=len(ops.constraints),
                   n_agents=len(ops.objectives), ops=ops, lipschitz=lipschitz,
                   radius=radius, box=box)

    def _check_dim(self, x: np.ndarray):
        if x.shape[-1] != self.dim:
            raise ProblemError(f"expected dimension {self.dim}, got {x.shape[-1]}")

    def _check_point(self, x: np.ndarray):
        if np.shape(x) != (self.dim,):
            raise ProblemError(f"expected shape ({self.dim},), got {np.shape(x)}")

    # -- batched evaluation (row i of x_rows belongs to agent i) -------------

    def agent_objective_grads(self, x_rows: np.ndarray) -> np.ndarray:
        """grad f_i(x_i), one row per agent: all that a step needs."""
        self._check_dim(x_rows)
        return self.ops.agent_objective_grads(x_rows)

    def agent_objective_values(self, x_rows: np.ndarray) -> np.ndarray:
        """f_i(x_i) for every agent i."""
        self._check_dim(x_rows)
        return self.ops.agent_objective_values(x_rows)

    def agent_constraint_combo(self, x_rows: np.ndarray,
                               lam_rows: np.ndarray) -> np.ndarray:
        """sum_k lam[i, k] * grad g_k(x_i), one row per agent."""
        self._check_dim(x_rows)
        return self.ops.agent_constraint_combo(x_rows, lam_rows)

    def agent_constraint_rows(self, x_rows: np.ndarray,
                              ks: np.ndarray) -> np.ndarray:
        """grad g_{k_i}(x_i), one row per agent, for sampled indices k_i."""
        self._check_dim(x_rows)
        return self.ops.agent_constraint_rows(x_rows, ks)

    def constraint_values_many(self, points: np.ndarray) -> np.ndarray:
        """g(x) at each row of points, one column per constraint."""
        self._check_dim(points)
        return self.ops.constraint_values_many(points)

    def mean_objective_many(self, points: np.ndarray) -> np.ndarray:
        """Cumulative objective f = (1/n) sum_i f_i at each row of points."""
        self._check_dim(points)
        return self.ops.mean_objective_many(points)

    def mean_objective_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(f(x), grad f(x)) for the cumulative objective f."""
        self._check_dim(x)
        return self.ops.mean_objective_grad(x)

    def mean_objective_bracket(self, points: np.ndarray):
        """(lower, upper) arrays (R, n) bracketing ``mean_objective_many``
        bit for bit, rounding included, at each row of the stack
        ``points`` (R, n, d), in O(nd); (-inf, inf) in a block that the
        problem has no bracket for."""
        self._check_dim(points)
        if points.ndim != 3:
            raise ProblemError(f"expected an (R, n, d) stack, got {points.shape}")
        return self.ops.mean_objective_bracket(points)

    # -- single-point evaluation ----------------------------------------------

    def objective(self, agent: int, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(f_i(x), grad f_i(x)), from the batched kernels on agent i alone."""
        agent = checked_int(agent, "agent", 0, self.n_agents)
        self._check_point(x)
        ops, x_row = self.ops.for_agent(agent), x[None, :]
        return (float(ops.agent_objective_values(x_row)[0]),
                ops.agent_objective_grads(x_row)[0])

    def constraint_values(self, x: np.ndarray) -> np.ndarray:
        self._check_point(x)
        return self.constraint_values_many(x[None, :])[0]


def _build_loss_problem(data: SyntheticDataset, l: float, u: float,
                        loss: str) -> ProblemSpec:
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               and 0 < v < math.inf for v in (l, u)):
        raise ProblemError("box margins must be positive finite real numbers, "
                           f"got l={l!r}, u={u!r}")
    features, labels = data.features, data.labels
    if not (isinstance(features, np.ndarray) and isinstance(labels, np.ndarray)
            and features.dtype.kind in "iuf" and labels.dtype.kind in "iuf"
            and features.ndim == 2 and 0 not in features.shape
            and labels.shape == features.shape[:1]):
        raise ProblemError("features must be a real (n, d) array with n, d "
                           ">= 1, and labels a real (n,) array")
    features = features.astype(float, copy=False)
    labels = labels.astype(float, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):
        # inf * 0 is NaN: finite only if the labels, the squared row norms
        # of the features and those of the rows b_j a_j all are
        signed_sq = labels * labels * np.add.reduce(features * features, axis=1)
    if not np.all(np.isfinite(signed_sq)):
        raise ProblemError("features and labels must be finite, and so must "
                           "the squared norms of the rows b_j a_j")
    d, radius = features.shape[1], 1.0
    # on the ball each of the 2d constraint values is at most max(l, u) + R
    # in size, so the norms that the solve and the records take stay finite
    # while this bound's square does
    try:
        reach = math.sqrt(2 * d) * (max(l, u) + radius)
    except OverflowError:  # an int beyond the largest float
        reach = math.inf
    if not math.isfinite(reach * reach):
        raise ProblemError(
            f"box margins l={l}, u={u} overflow the constraint norms in d={d}")
    lower = np.full(d, -l)
    upper = np.full(d, u)
    return ProblemSpec(
        dim=d,
        n_constraints=2 * d,
        n_agents=len(features),
        ops=_LossBoxOps(features, labels, lower, upper, loss),
        lipschitz=1.0,
        radius=radius,
        box=(lower, upper),
    )


def build_logistic_problem(data: SyntheticDataset, l: float, u: float) -> ProblemSpec:
    """Per-agent loss log(1 + exp(b_i <a_i, x>)) with box constraints.

    The box gives m = 2d constraints; the unit-ball constraint is enforced
    by the algorithms' ball projection (radius 1), not as a g_k.
    """
    return _build_loss_problem(data, l, u, "logistic")


def build_hinge_problem(data: SyntheticDataset, l: float, u: float) -> ProblemSpec:
    """Per-agent loss max(0, 1 - b_i <a_i, x>) with box constraints.

    At the hinge kink the zero vector is returned (a valid subgradient,
    chosen for determinism).
    """
    return _build_loss_problem(data, l, u, "hinge")


# ---------------------------------------------------------------------------
# reference optimum
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReferenceSolution:
    """Reference optimal value and point for error normalization."""

    f_star: float
    x_star: np.ndarray
    method: str
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "f_star": self.f_star,
            "x_star": [float(v) for v in self.x_star],
            "method": self.method,
            "residual": self.residual,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ReferenceSolution":
        return cls(f_star=float(d["f_star"]), x_star=np.array(d["x_star"]),
                   method=str(d["method"]), residual=float(d["residual"]))


def _ball_scale(v: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                radius: float) -> float | None:
    """Closed-form scale s at which ||clip(s v)|| reaches ``radius``.

    Coordinate k reaches its face f_k (``upper`` for v_k > 0, ``lower`` for
    v_k < 0) at the scale f_k / v_k. Between those sorted scales the squared
    norm is s^2 A + C: A sums v_k^2 over the coordinates still moving, C sums
    f_k^2 over those already on their face. Assumes lower <= 0 <= upper and
    returns None where no segment crosses; the caller checks the estimate.
    """
    stops = sorted((f / x, x * x, f * f) for x, f in zip(
        v.tolist(), np.where(v > 0, upper, lower).tolist()) if x != 0)
    moving = list(itertools.accumulate(a for _, a, _ in reversed(stops)))[::-1]
    r2, on_face = radius * radius, 0.0
    for (t, _, c), a in zip(stops, moving):
        if t * t * a + on_face >= r2:
            return math.sqrt(max(r2 - on_face, 0.0) / a) if a > 0 else None
        on_face += c
    return None


def _clip_in_ball(v: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                  radius: float, max_scale: float = 1.0) -> np.ndarray:
    """clip(s v, lower, upper) for the largest s in [0, max_scale] in the ball.

    The norm of clip(s v) does not decrease with s, so bisection finds the
    scale at which it reaches ``radius``; the result is always in the ball.
    With max_scale = 1 this is the exact Euclidean projection of v onto box
    intersect ball, whose KKT point is clip(v / (1 + mu)) for the ball
    multiplier mu >= 0.

    ``inside`` is monotone in s, so the bisection ends on the largest float
    scale inside the ball from any bracket: a few-ulp bracket around the
    closed-form ``_ball_scale`` gives the same bits as [0, max_scale], which
    stays the fallback when the estimate misses.
    """
    def inside(s: float) -> bool:
        y = np.clip(s * v, lower, upper)
        return math.sqrt(y.dot(y)) <= radius  # np.linalg.norm's 1-D form

    lo, hi = 0.0, max_scale
    if inside(hi):
        lo = hi
    elif (est := _ball_scale(v, lower, upper, radius)) is not None:
        top = min(max_scale, est * (1.0 + 4e-16))
        bottom = min(top, est * (1.0 - 4e-16))
        if inside(bottom) and not inside(top):
            lo, hi = bottom, top
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return np.clip(lo * v, lower, upper)


def _linear_min_box_ball(c: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                         radius: float) -> float:
    """min <c, y> over the box intersected with the radius ball.

    The minimizer is clip(-c / nu) for the ball multiplier nu, and the
    objective does not increase as 1/nu grows, so it is the largest feasible
    scale of -c up to the one that puts every coordinate with c_k != 0 on
    its box face. Used for the Frank-Wolfe-style suboptimality certificate.
    The scale is capped at 2^1000 / max(1, max |c_k|), where every s c_k
    stays finite; a coordinate that reaches its face only beyond the cap
    has |c_k| < reach_k max(1, max |c|) 2^-1000, a negligible term.
    """
    nonzero = c != 0
    size = np.abs(c[nonzero])
    reach = np.maximum(np.abs(lower), np.abs(upper))[nonzero]
    with np.errstate(over="ignore"):
        max_scale = float(np.maximum.reduce(reach / size, initial=0.0))
    cap = 2.0 ** 1000 / max(1.0, float(np.maximum.reduce(size, initial=0.0)))
    return float(c @ _clip_in_ball(-c, lower, upper, radius,
                                   min(max_scale, cap)))


def suboptimality_certificate(p: ProblemSpec, x: np.ndarray) -> float:
    """Upper bound on f(x) - f* from a subgradient at x.

    By convexity f* >= f(x) + min_y <grad, y - x> over the feasible set,
    so the returned linear gap bounds the suboptimality. Tight for smooth
    objectives near the optimum; possibly loose at nonsmooth points.
    """
    if p.box is None:
        raise ProblemError("certificate requires box-structured constraints")
    grad = p.mean_objective_grad(x)[1]
    best = _linear_min_box_ball(grad, p.box[0], p.box[1], p.radius)
    return max(float(grad @ x) - best, 0.0)


def reference_optimum(p: ProblemSpec, iterations: int = 10_000,
                      residual_tol: float | None = None) -> ReferenceSolution:
    """Centralized projected gradient for the reference optimum.

    Starting from the projected origin, each iteration tries
    y = Pi(x - s grad f(x)) with exact projection onto box intersect ball.
    The trial is accepted when f(y) lies below the quadratic upper model
    f(x) + <grad, y - x> + ||y - x||^2 / (2 s), after which s doubles;
    otherwise s halves. The solve stops when an accepted step no longer
    strictly decreases f, or after ``iterations`` trials. This is exact for
    objectives smooth on the feasible set, which the built-in families are
    (hinge is affine on the unit ball, as the features have unit norm).

    The suboptimality of the answer is certified by a linear-minimization
    gap and stored; if it exceeds 1e-4 a warning is logged, and if
    ``residual_tol`` is given the solver raises instead of silently
    accepting an uncertified answer.
    """
    if p.box is None:
        raise ProblemError("reference solver requires box-structured constraints")
    iterations = checked_int(iterations, "iterations", 1)
    lower, upper = p.box

    x = _clip_in_ball(np.zeros(p.dim), lower, upper, p.radius)
    val, grad = p.mean_objective_grad(x)
    step = 1.0
    for _ in range(iterations):
        y = _clip_in_ball(x - step * grad, lower, upper, p.radius)
        y_val, y_grad = p.mean_objective_grad(y)
        move = y - x
        if not y_val <= val + grad @ move + (move @ move) / (2.0 * step):
            step /= 2.0
            continue
        if not y_val < val:
            break
        x, val, grad = y, y_val, y_grad
        step *= 2.0

    residual = suboptimality_certificate(p, x)
    if not residual <= 1e-4:
        log.warning("reference solve residual %.3e exceeds 1e-4", residual)
    if residual_tol is not None and not residual <= residual_tol:
        raise ReferenceError(
            f"reference solve residual {residual:.3e} > {residual_tol:.1e}")

    if not (np.max(p.constraint_values(x), initial=0.0) <= 1e-8
            and float(np.linalg.norm(x)) - p.radius <= 1e-8):
        raise ReferenceError("reference point is infeasible beyond 1e-8")
    return ReferenceSolution(f_star=float(val), x_star=x,
                             method="projected-gradient",
                             residual=float(residual))
