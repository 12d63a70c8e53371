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
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

log = logging.getLogger(__name__)

#: Oracle maps a point to (value, subgradient).
Oracle = Callable[[np.ndarray], tuple[float, np.ndarray]]

#: Entries per temporary in ``mean_objective_many``: each block holds as
#: many points as fit this many point x data-point values.
MEAN_OBJECTIVE_BLOCK = 1 << 16

#: The most 8-byte entries one numpy array can hold; a dataset or graph
#: needing more cannot be allocated at all.
MAX_ARRAY_ENTRIES = np.iinfo(np.intp).max // 8


class ProblemError(ValueError):
    """Invalid problem construction or dimension mismatch."""


class ReferenceError(RuntimeError):
    """The reference solver failed to certify the requested accuracy."""


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
    if n < 1 or d < 1:
        raise ProblemError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if n * d > MAX_ARRAY_ENTRIES:
        raise ProblemError(f"n * d = {n * d} exceeds the {MAX_ARRAY_ENTRIES} "
                           "entries a numpy array can hold")
    if seed < 0:
        raise ProblemError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    w = rng.normal(size=d)
    p_plus = expit(-(a @ w))
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
        self.dim = d = features.shape[1]
        # row k is grad g_k: -e_k for the lower bounds, then +e_k
        self._constraint_grads = np.zeros((2 * d, d))
        self._constraint_grads[np.arange(2 * d), np.tile(np.arange(d), 2)] = (
            np.repeat([-1.0, 1.0], d))

    # built on first use, so a run without a reference never builds them

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
        a = self.labels[:, None] * self.features
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

    def _loss_slopes(self, z: np.ndarray) -> np.ndarray:
        """Per-term d(loss)/dz at z = b <a, x>."""
        if self.loss == "logistic":
            return expit(z)
        return np.where(z < 1.0, -1.0, 0.0)

    def _agent_margins(self, x_rows: np.ndarray) -> np.ndarray:
        """z_i = b_i <a_i, x_i>, one per agent."""
        return self.labels * np.einsum("id,id->i", self.features, x_rows)

    def agent_objective_grads(self, x_rows: np.ndarray) -> np.ndarray:
        z = self._agent_margins(x_rows)
        return (self.labels * self._loss_slopes(z))[:, None] * self.features

    def agent_objective_values(self, x_rows: np.ndarray) -> np.ndarray:
        return self._loss_values(self._agent_margins(x_rows))

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
        z = self.labels * (self.features @ x)
        # np.mean's bits (the sum, then one division) without its wrapper:
        # the reference solve calls this on every trial step
        return float(np.add.reduce(self._loss_values(z)) / len(z)), \
            self.features.T @ (self.labels * self._loss_slopes(z)) / len(z)

    def mean_objective_bracket(self, points: np.ndarray):
        """(lower, upper) around ``mean_objective_many(points)``, in O(nd).

        With c the mean point and (f(c), g) from one ``mean_objective_grad``
        call, f(y) >= f(c) + <g, y - c> by convexity. Above, the logistic
        loss adds beta/2 ||y - c||^2 with beta from ``_curvature``, at most
        A^2 / 4 for A >= max ||b_j a_j||. The hinge is affine where
        every margin b_j <a_j, y> is at most 1, so it adds only
        max(0, A ||y|| - 1), which is 0 on the unit ball when A <= 1. Its
        g is the affine gradient only when every margin at c is below 1,
        so a center too close to the sphere gives None, as do non-finite
        bounds.

        Both bounds then widen by a rounding slack. Each sum in the kernel
        and in the gradient carries at most n + d + 2 roundings, with n the
        data count: the d products and sums of a margin, the label, the
        loss (a few ulps, with slope at most 1), an n-term sum in any order
        (so BLAS may compute the gradient) and its division; the bracket
        adds its own d-term products and sums. Each is a relative error of
        the magnitudes involved: the value, the linear and quadratic terms
        and the margins, at most A (||c|| + max r) (1 + A max r). The factor
        4 covers the sum of these terms and their own rounding; products
        that underflow add an absolute error below (n + d + 8) tiny.
        """
        n, d = len(self.labels), self.dim
        finfo = np.finfo(points.dtype)
        center = np.add.reduce(points, axis=0) / len(points)
        c_norm = math.sqrt(float(center @ center))
        logistic = self.loss == "logistic"
        if not logistic and not self._reach * c_norm < 1.0 - 4 * (d + 2) * finfo.eps:
            return None
        value, grad = self.mean_objective_grad(center)
        diff = points - center
        r_sq = np.einsum("ij,ij->i", diff, diff)
        r_max = math.sqrt(float(r_sq.max()))
        y_max = c_norm + r_max
        beta = self._curvature if logistic else 0.0
        scale = (abs(value) + math.sqrt(float(grad @ grad)) * r_max
                 + beta * r_max * r_max
                 + self._reach * y_max * (1.0 + self._reach * r_max))
        if not math.isfinite(scale * (n + d + 8)):
            return None
        slack = (4.0 * (n + d + 8) * float(finfo.eps) * scale
                 + (n + d + 8) * float(finfo.tiny))
        linear = diff @ grad
        linear += value
        if logistic:
            curvature = 0.5 * beta * r_sq
        else:
            curvature = max(0.0, self._reach * y_max - 1.0)
        return linear - slack, linear + curvature + slack

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

    def mean_objective_bracket(self, points: np.ndarray) -> None:
        """No bracket: bare oracles come with no curvature bound."""
        return None

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
        """(lower, upper) arrays bracketing ``mean_objective_many(points)``
        bit for bit, rounding included, in O(nd); None when the problem
        has no bracket for these points."""
        self._check_dim(points)
        return self.ops.mean_objective_bracket(points)

    # -- single-point evaluation ----------------------------------------------

    def objective(self, agent: int, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(f_i(x), grad f_i(x)), from batched calls with every agent at x."""
        checked_index(agent, self.n_agents, "agent")
        x_rows = np.tile(x, (self.n_agents, 1))
        return (float(self.agent_objective_values(x_rows)[agent]),
                self.agent_objective_grads(x_rows)[agent])

    def constraint_values(self, x: np.ndarray) -> np.ndarray:
        return self.constraint_values_many(x[None, :])[0]

    def constraint_grads(self, x: np.ndarray) -> np.ndarray:
        """grad g_k(x) as row k, for every constraint k."""
        m = self.n_constraints
        return self.agent_constraint_rows(np.tile(x, (m, 1)), np.arange(m))


def checked_index(index, count: int, what: str) -> None:
    """Raise ProblemError unless ``index`` is an integer in [0, count)."""
    if not (isinstance(index, (int, np.integer)) and 0 <= index < count):
        raise ProblemError(f"{what} {index!r} is not an integer in [0, {count})")


def box_constraints(lower: np.ndarray, upper: np.ndarray) -> tuple[Oracle, ...]:
    """Oracles for lower_k - x_k <= 0 (k < d) followed by x_k - upper_k <= 0.

    ``lower`` and ``upper`` are the actual bound vectors, so a symmetric
    margin l puts lower = -l * ones.
    """
    d = len(lower)

    def make_lower(k: int) -> Oracle:
        e = np.zeros(d)
        e[k] = -1.0
        return lambda x: (float(lower[k] - x[k]), e)

    def make_upper(k: int) -> Oracle:
        e = np.zeros(d)
        e[k] = 1.0
        return lambda x: (float(x[k] - upper[k]), e)

    return tuple([make_lower(k) for k in range(d)] +
                 [make_upper(k) for k in range(d)])


def _build_loss_problem(data: SyntheticDataset, l: float, u: float,
                        loss: str) -> ProblemSpec:
    if not (0 < l < math.inf and 0 < u < math.inf):
        raise ProblemError(
            f"box margins must be positive and finite, got l={l}, u={u}")
    d, radius = data.dim, 1.0
    # on the ball each of the 2d constraint values is at most max(l, u) + R
    # in size, so the norms that the solve and the records take stay finite
    # while this bound's square does
    reach = math.sqrt(2 * d) * (max(l, u) + radius)
    if not math.isfinite(reach * reach):
        raise ProblemError(
            f"box margins l={l}, u={u} overflow the constraint norms in d={d}")
    lower = np.full(d, -l)
    upper = np.full(d, u)
    return ProblemSpec(
        dim=d,
        n_constraints=2 * d,
        n_agents=data.n,
        ops=_LossBoxOps(data.features, data.labels, lower, upper, loss),
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


def feasibility_report(p: ProblemSpec, x: np.ndarray):
    """Positive parts of constraint values plus the ball excess at x.

    Returns (violations, norm_excess) with violations[k] = max(0, g_k(x))
    and norm_excess = max(0, ||x|| - R).
    """
    if x.shape != (p.dim,):
        raise ProblemError(f"expected a vector of dimension {p.dim}, got {x.shape}")
    violations = np.maximum(0.0, p.constraint_values(x))
    excess = max(0.0, float(np.linalg.norm(x)) - p.radius)
    return violations, excess


def validate_lipschitz(p: ProblemSpec, seed: int = 0, n_points: int = 32,
                       tol: float = 1e-12) -> list[str]:
    """Spot-check subgradient norms against the declared Lipschitz bound.

    Samples points inside the radius ball, evaluates every objective and
    constraint oracle, and returns (and logs) a message per violation.
    """
    rng = np.random.default_rng(seed)
    failures = []
    for _ in range(n_points):
        x = rng.normal(size=p.dim)
        x *= rng.random() * p.radius / max(np.linalg.norm(x), 1e-30)
        objective_grads = p.agent_objective_grads(np.tile(x, (p.n_agents, 1)))
        for kind, grads in (("objective", objective_grads),
                            ("constraint", p.constraint_grads(x))):
            for i, norm in enumerate(np.linalg.norm(grads, axis=1)):
                if norm > p.lipschitz + tol:
                    failures.append(f"{kind} {i}: subgradient norm {norm} > L")
    for msg in failures:
        log.error("Lipschitz bound violated: %s", msg)
    return failures


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


def _clip_in_ball(v: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                  radius: float, max_scale: float = 1.0) -> np.ndarray:
    """clip(s v, lower, upper) for the largest s in [0, max_scale] in the ball.

    The norm of clip(s v) does not decrease with s, so bisection finds the
    scale at which it reaches ``radius``; the result is always in the ball.
    With max_scale = 1 this is the exact Euclidean projection of v onto box
    intersect ball, whose KKT point is clip(v / (1 + mu)) for the ball
    multiplier mu >= 0.
    """
    def inside(s: float) -> bool:
        return float(np.linalg.norm(np.clip(s * v, lower, upper))) <= radius

    lo, hi = 0.0, max_scale
    if inside(hi):
        lo = hi
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
    """
    nonzero = c != 0
    reach = np.maximum(np.abs(lower), np.abs(upper))[nonzero]
    max_scale = float(np.max(reach / np.abs(c[nonzero]), initial=0.0))
    return float(c @ _clip_in_ball(-c, lower, upper, radius, max_scale))


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
    if iterations < 1:
        raise ProblemError("iterations must be positive")
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

    violations, excess = feasibility_report(p, x)
    if not (float(np.max(violations, initial=0.0)) <= 1e-8 and excess <= 1e-8):
        raise ReferenceError("reference point is infeasible beyond 1e-8")
    return ReferenceSolution(f_star=float(val), x_star=x,
                             method="projected-gradient",
                             residual=float(residual))


def grid_search_optimum(p: ProblemSpec, resolution: float = 1e-3) -> ReferenceSolution:
    """Brute-force grid reference for d <= 2 cross-checks.

    Scans the box at the given resolution, keeps feasible (in-ball) points,
    and reports the best value. The residual is the Lipschitz bound on the
    error of the grid spacing.
    """
    if p.box is None or p.dim > 2:
        raise ProblemError("grid search needs a box problem with d <= 2")
    lower, upper = p.box
    axes = [np.arange(lower[k], upper[k] + resolution / 2, resolution)
            for k in range(p.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    points = points[np.linalg.norm(points, axis=1) <= p.radius]
    if len(points) == 0:
        raise ProblemError("grid is empty: box does not intersect the ball")
    vals = p.mean_objective_many(points)
    k = int(np.argmin(vals))
    residual = 2.0 * p.lipschitz * resolution * math.sqrt(p.dim)
    return ReferenceSolution(f_star=float(vals[k]), x_star=points[k],
                             method="grid-search", residual=residual)
