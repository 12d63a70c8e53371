"""Invariant and theory-bound verification suites behind `verify`.

Quick checks cover the algebraic identities (projections, unbiasedness,
auxiliary inequalities, matrix properties, determinism). The full level
adds the multiplier/subgradient/consensus envelopes and the rate and
violation monitors on small canonical runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine, graphs, lagrangian, metrics, problems


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check(name, ok, detail="") -> CheckResult:
    return CheckResult(name=name, ok=bool(ok), detail=detail)


def _projection_checks(rng) -> list[CheckResult]:
    results = []
    worst_vi = 0.0
    ok_props = True
    for _ in range(1000):
        d = int(rng.integers(1, 8))
        radius = 0.5 + rng.random()
        v = rng.normal(size=d) * 3
        y = engine.project_ball(v, radius)
        ok_props &= np.linalg.norm(y) <= radius * (1.0 + 1e-12)
        ok_props &= bool(np.max(np.abs(engine.project_ball(y, radius) - y))
                         <= 1e-14)
        for _ in range(3):
            z = rng.normal(size=d)
            z *= rng.random() * radius / max(np.linalg.norm(z), 1e-9)
            worst_vi = max(worst_vi, float((v - y) @ (z - y)))
        w = rng.normal(size=d) * 3
        q = engine.project_orthant(w)
        ok_props &= np.all(q >= 0) and np.array_equal(q, np.maximum(w, 0))
    results.append(_check("ball projection properties",
                          ok_props and worst_vi <= 1e-9,
                          f"worst variational slack {worst_vi:.2e}"))
    return results


def _unbiasedness_check(rng) -> CheckResult:
    data = problems.generate_dataset(12, 4, seed=3)
    worst = 0.0
    for build in (problems.build_logistic_problem, problems.build_hinge_problem):
        p = build(data, 0.2, 0.2)
        n, m = p.n_agents, p.n_constraints
        for _ in range(100):
            x = rng.normal(size=(n, 4))
            x *= rng.random((n, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
            lam = rng.random((n, m)) * 2
            lam[rng.random(n) < 0.1] = 0.0
            grad_f = p.agent_objective_grads(x)
            probs = lagrangian._sampling_probabilities(
                lam, np.add.reduce(lam, axis=1))
            mix = sum(probs[:, k, None] * lagrangian.primal_directions(
                p, x, lam, grad_f, np.full(n, k)) for k in range(m))
            worst = max(worst, float(np.max(np.abs(
                mix - lagrangian.primal_directions(p, x, lam, grad_f)))))
    return _check("constraint-sampling unbiasedness", worst <= 1e-12,
                  f"worst deviation {worst:.2e}")


def _inequality_checks(rng) -> list[CheckResult]:
    ok_ps = all(metrics.check_product_sum_inequality(rng.random(int(rng.integers(1, 80))), 1.0)
                for _ in range(500))
    ok_tau = all(metrics.check_tau_inequality(tau, t)
                 for tau in range(1, 21)
                 for t in range(tau - 1, 2000, 13))
    return [_check("stepsize product-sum inequality", ok_ps),
            _check("window-sum inequality", ok_tau)]


def _matrix_checks() -> CheckResult:
    cases = [
        graphs.generate_watts_strogatz(40, 6, 0.1, seed=1),
        graphs.generate_erdos_renyi(30, 0.2, seed=2),
        graphs.generate_lattice8(5, 6),
        graphs.generate_barbell(20, 2),
    ]
    ok = True
    detail = []
    for g in cases:
        lazy = graphs.lazy_metropolis(g)
        for w in (lazy, graphs.laplacian_weights(g)):
            rows, cols = graphs._line_sums(w.csr)
            ok &= np.all(w.csr.data >= 0)
            ok &= float(np.max(np.abs(cols - 1))) <= 1e-12
            ok &= float(np.max(np.abs(rows - 1))) <= 1e-12
            ok &= graphs._pattern_on_edges(w.csr, g)
            ok &= graphs._is_symmetric(w.csr)
        diag = lazy.csr.diagonal()
        ok &= bool(np.all(diag + 1e-12 >= graphs._line_sums(lazy.csr)[0] - diag))
        margin = 71.0 * g.n ** 2 - 1.0 / (1.0 - lazy.sigma2)
        ok &= margin >= 0
        detail.append(f"n={g.n} spectral margin {margin:.3g}")
    return _check("mixing matrix suite", ok, "; ".join(detail))


def _determinism_check() -> CheckResult:
    data = problems.generate_dataset(20, 3, seed=5)
    again = problems.generate_dataset(20, 3, seed=5)
    ok = (np.array_equal(data.features, again.features)
          and np.array_equal(data.labels, again.labels))
    p = problems.build_logistic_problem(data, 0.1, 0.1)
    g = graphs.generate_erdos_renyi(20, 0.3, seed=4)
    w = graphs.lazy_metropolis(g)
    cfg = engine.RunConfig(variant="stochastic", eta=1.0, iterations=200,
                           record_every=20, seed=11)
    ok &= engine.run(p, w, cfg).to_csv_text() == engine.run(p, w, cfg).to_csv_text()
    return _check("seeded determinism", ok)


def quick_checks() -> list[CheckResult]:
    rng = np.random.default_rng(0)
    results = _projection_checks(rng)
    results.append(_unbiasedness_check(rng))
    results.extend(_inequality_checks(rng))
    results.append(_matrix_checks())
    results.append(_determinism_check())
    return results


# ---------------------------------------------------------------------------
# full level: bound monitors on canonical runs
# ---------------------------------------------------------------------------

def _canonical_run(margins=(0.1, 0.1), with_reference=True):
    data = problems.generate_dataset(50, 5, seed=1)
    p = problems.build_logistic_problem(data, *margins)
    g = graphs.generate_watts_strogatz(50, 10, 0.02, seed=7)
    w = graphs.lazy_metropolis(g)
    ref = None
    if with_reference:
        ref = problems.reference_optimum(p)
    cfg = engine.RunConfig(variant="deterministic", eta=1.0, iterations=2000,
                           record_every=10, seed=1)
    trace = engine.run(p, w, cfg, reference=ref)
    return p, ref, trace


def bound_monitor_checks(p, ref, trace) -> list[CheckResult]:
    """Hard versions of the warn-only engine monitors, for one finished run."""
    pairs: dict[str, list[tuple[float, float]]] = {}
    for rec in trace.records:
        for name, value, bound in engine.bound_checks(p, trace.config,
                                                      trace.sigma2, rec, ref):
            pairs.setdefault(name, []).append((value, bound))
    return [_check(name, all(value <= bound + 1e-9 for value, bound in checked),
                   f"smallest margin {min(b - v for v, b in checked):.3g}")
            for name, checked in pairs.items()]


def full_checks() -> list[CheckResult]:
    results = quick_checks()
    p, ref, trace = _canonical_run()
    results.extend(bound_monitor_checks(p, ref, trace))

    # strictly feasible instance: violation envelope that decays with T
    p2, _, trace2 = _canonical_run(margins=(0.9, 0.9), with_reference=False)
    cfg2 = trace2.config
    viol_ok = all(
        r.violation_sq <= metrics.strict_violation_bound(
            p2, trace2.sigma2, cfg2.eta, max(r.t, 2),
            cfg2.step_scale) + 1e-12
        for r in trace2.records if r.t >= 100)
    results.append(_check("strict-feasibility violation bound", viol_ok))
    return results
