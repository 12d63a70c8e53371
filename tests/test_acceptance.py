"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
table. Shared heavyweight runs (the eta-sweep of the default instance and
its reference optimum) are session fixtures.

Criteria 7b and 10 run on the binding instance (l = u = 0.001), where a
fixed eta > 0 makes the iteration track the regularized saddle point
x_eta = argmin_{||x|| <= R} f(x) + ||[g(x)]_+||^2 / (2 eta), which is
infeasible by O(eta ||grad f||). ``regularized_saddle`` computes that
point independently, and both tests check the runs against it.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq, lsq_linear, minimize

from pdnet import cli, engine as en, metrics as me
from pdnet.graphs import (
    generate_barbell,
    generate_erdos_renyi,
    generate_lattice8,
    generate_watts_strogatz,
    laplacian_weights,
    lazy_metropolis,
)
from pdnet.lagrangian import grad_x, sampling_distribution, stochastic_grad_x
from pdnet.problems import (
    build_hinge_problem,
    build_logistic_problem,
    generate_dataset,
    reference_optimum,
)

from conftest import constraint_grads


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    return ok


def records_at(trace, t):
    return next(r for r in trace.records if r.t == t)


def regularized_saddle(p, eta):
    """f and ||[g]_+||^2 at the saddle point of the eta-regularized Lagrangian.

    For fixed eta > 0 the maximizing multiplier is lam = [g(x)]_+ / eta, so
    the saddle point is x_eta = argmin_{||x|| <= R} f(x) + ||[g(x)]_+||^2 /
    (2 eta), a smooth problem. It is solved twice, by SLSQP with the ball
    as a constraint and by unconstrained BFGS; the two must agree to 3e-8
    and the ball must be inactive, so x_eta is a stationary point of the
    penalized objective on the whole space.
    """
    def penalized(x):
        f, grad_f = p.mean_objective_grad(x)
        excess = np.maximum(p.constraint_values(x), 0.0)
        return (f + excess @ excess / (2.0 * eta),
                grad_f + constraint_grads(p, x).T @ excess / eta)

    x0 = np.zeros(p.dim)
    ball = {"type": "ineq", "fun": lambda x: p.radius ** 2 - x @ x,
            "jac": lambda x: -2.0 * x}
    slsqp = minimize(penalized, x0, jac=True, method="SLSQP",
                     constraints=[ball],
                     options={"ftol": 1e-15, "maxiter": 1000})
    bfgs = minimize(penalized, x0, jac=True, method="BFGS",
                    options={"gtol": 1e-10, "maxiter": 1000})
    assert slsqp.success, slsqp.message
    assert np.max(np.abs(slsqp.x - bfgs.x)) <= 3e-8, "saddle solvers disagree"
    assert np.linalg.norm(slsqp.x) < p.radius, "ball active at the saddle"
    excess = np.maximum(p.constraint_values(slsqp.x), 0.0)
    return (float(p.mean_objective_many(slsqp.x[None, :])[0]),
            float(excess @ excess))


# ---------------------------------------------------------------------------
# shared runs: logistic l=u=0.1 on WS(100, 20, 0.02), eta in {0.5, 1, 2}
# ---------------------------------------------------------------------------

ETAS = (0.5, 1.0, 2.0)


@pytest.fixture(scope="module")
def eta_sweep_runs(paper_logistic, ws_matrix, paper_reference):
    runs = {}
    for variant in ("deterministic", "stochastic"):
        for eta in ETAS:
            cfg = en.RunConfig(variant=variant, iterations=10_000, eta=eta,
                               seed=1, record_every=10)
            runs[variant, eta] = en.run(paper_logistic, ws_matrix, cfg,
                                        reference=paper_reference)
    return runs


# ---------------------------------------------------------------------------
# criterion 1: projections against independent constrained-least-squares oracles
# ---------------------------------------------------------------------------

def orthant_lsq_oracle(v):
    """min ||y - v|| s.t. y >= 0 via bounded-variable least squares."""
    res = lsq_linear(np.eye(len(v)), v, bounds=(0.0, np.inf), method="bvls",
                     tol=1e-14)
    return res.x


def ball_lsq_oracle(v, radius):
    """min ||y - v|| s.t. ||y|| <= R via the trust-region secular equation."""
    norm = np.linalg.norm(v)
    if norm <= radius:
        return v.copy()
    secular = lambda nu: np.linalg.norm(v / (1.0 + nu)) - radius
    nu = brentq(secular, 0.0, norm / radius, xtol=1e-15, rtol=8.9e-16)
    return v / (1.0 + nu)


def test_criterion_01_projection_oracles():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for _ in range(10_000):
        d = int(rng.integers(1, 9))
        v = rng.normal(size=d) * rng.choice([0.1, 1.0, 10.0])
        radius = 0.25 + 2.0 * rng.random()
        worst = max(worst, float(np.max(np.abs(
            en.project_ball(v, radius) - ball_lsq_oracle(v, radius)))))
    for _ in range(10_000):
        d = int(rng.integers(1, 9))
        v = rng.normal(size=d) * rng.choice([0.1, 1.0, 10.0])
        worst = max(worst, float(np.max(np.abs(
            en.project_orthant(v) - orthant_lsq_oracle(v)))))
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    assert report("1 projection-oracles", ok,
                  f"worst {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: mixing-matrix suite on 50 random graphs per family
# ---------------------------------------------------------------------------

def _sample_graph(family, rng):
    if family == "watts_strogatz":
        n = int(rng.integers(8, 201))
        k = 2 * int(rng.integers(1, min(10, (n - 1) // 2) + 1))
        return generate_watts_strogatz(n, k, float(rng.random() * 0.6),
                                       seed=int(rng.integers(1 << 30)))
    if family == "erdos_renyi":
        n = int(rng.integers(5, 201))
        p = float(np.clip(0.05 + 3.0 / n + 0.3 * rng.random(), 0.0, 1.0))
        return generate_erdos_renyi(n, p, seed=int(rng.integers(1 << 30)))
    if family == "lattice8":
        return generate_lattice8(int(rng.integers(2, 15)),
                                 int(rng.integers(2, 15)))
    n = 2 * int(rng.integers(2, 101))
    return generate_barbell(n, int(rng.integers(1, n // 2 + 1)))


def test_criterion_02_mixing_matrix_suite():
    rng = np.random.default_rng(7)
    start = time.time()
    checked = 0
    for family in ("watts_strogatz", "erdos_renyi", "lattice8", "barbell"):
        for _ in range(50):
            g = _sample_graph(family, rng)
            i, j = g.edge_array.T
            allowed = np.eye(g.n)
            allowed[i, j] = allowed[j, i] = 1.0
            for w in (lazy_metropolis(g), laplacian_weights(g)):
                e = w.csr.toarray()
                assert np.all(e >= 0.0)
                assert float(np.max(np.abs(e.sum(0) - 1.0))) <= 1e-12
                assert float(np.max(np.abs(e.sum(1) - 1.0))) <= 1e-12
                assert not np.any((e != 0.0) & (allowed == 0.0))
                assert np.allclose(e, e.T, atol=1e-15)
            lazy = lazy_metropolis(g)
            dense = lazy.csr.toarray()
            diag = np.diag(dense)
            assert np.all(diag + 1e-12 >= dense.sum(1) - diag)
            assert 1.0 / (1.0 - lazy.sigma2) <= 71.0 * g.n ** 2
            checked += 1
    elapsed = time.time() - start
    ok = checked == 200 and elapsed < 120.0
    assert report("2 mixing-matrices", ok, f"{checked} graphs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: exact sampling unbiasedness
# ---------------------------------------------------------------------------

def test_criterion_03_unbiasedness(paper_logistic, paper_hinge):
    rng = np.random.default_rng(3)
    start = time.time()
    worst = 0.0
    for p in (paper_logistic, paper_hinge):
        for _ in range(500):
            x = rng.normal(size=p.dim)
            x *= rng.random() / np.linalg.norm(x)
            lam = rng.random(p.n_constraints) * 3.0
            if rng.random() < 0.05:
                lam[:] = 0.0
            agent = int(rng.integers(p.n_agents))
            probs = sampling_distribution(lam)
            mixed = sum(probs[k] * stochastic_grad_x(p, agent, x, lam, k)
                        for k in range(p.n_constraints))
            worst = max(worst, float(np.max(np.abs(
                mixed - grad_x(p, agent, x, lam)))))
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    assert report("3 unbiasedness", ok, f"worst {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 4-6: bound monitors on the shared eta-sweep runs
# ---------------------------------------------------------------------------

def test_criterion_04_lambda_norm_bound(paper_logistic, eta_sweep_runs):
    violations = 0
    worst_ratio = 0.0
    for (variant, eta), trace in eta_sweep_runs.items():
        bound = me.lambda_norm_bound(paper_logistic, eta)
        for r in trace.records:
            worst_ratio = max(worst_ratio, r.sum_lambda_sq / bound)
            if r.sum_lambda_sq > bound:
                violations += 1
    ok = violations == 0
    assert report("4 lambda-norm-bound", ok,
                  f"0 violations required, got {violations}; "
                  f"worst ratio {worst_ratio:.3g}")


def test_criterion_05_subgradient_and_consensus_bounds(paper_logistic,
                                                       eta_sweep_runs):
    violations = 0
    for (variant, eta), trace in eta_sweep_runs.items():
        cfg = trace.config
        gx_bound = me.grad_x_norm_bound(paper_logistic, eta)
        glam_bound = me.grad_lambda_excess_bound(paper_logistic)
        for r in trace.records:
            if r.max_grad_x_norm > gx_bound:
                violations += 1
            if r.max_grad_lambda_excess > glam_bound:
                violations += 1
            cons_bound = me.consensus_bound(
                paper_logistic, trace.sigma2, eta, cfg.iterations,
                en.stepsize(r.t, cfg))
            if r.consensus_diameter > cons_bound:
                violations += 1
    ok = violations == 0
    assert report("5 subgradient-consensus-bounds", ok,
                  f"violations {violations}")


def test_criterion_06_rate_bound_monitor(paper_logistic, ws_matrix,
                                       paper_reference, eta_sweep_runs):
    budget = paper_reference.residual + 1e-4
    violations = 0
    decreases = []
    for eta in ETAS:
        trace = eta_sweep_runs["deterministic", eta]
        for r in trace.records:
            if r.t >= 2 and not math.isnan(r.thm2_bound):
                if r.max_gap > r.thm2_bound + budget:
                    violations += 1
        gap_t2 = records_at(trace, 100).max_gap
        gap_t4 = records_at(trace, 10_000).max_gap
        decreases.append(gap_t4 < gap_t2)
    ok = violations == 0 and all(decreases)
    assert report("6 rate-bound-monitor", ok,
                  f"violations {violations}, strict decrease {decreases}")


# ---------------------------------------------------------------------------
# criterion 7: constraint-violation rates and the r trade-off
#
# 7b ties eta = T^(-r) to the horizon T. A larger r shrinks eta, which moves
# the regularized saddle point toward the feasible optimum: its objective
# rises toward f* from below and its violation falls (the quadratic-penalty
# path is monotone in eta). So at T the one-sided gap max_i f(xhat_i) - f*
# must rise with r while the violation falls, and the violation's decay
# exponent must steepen. The two-sided ``eps`` is not used: near the
# infeasible saddle f(xhat_i) < f*, so it measures the regularization bias.
# ---------------------------------------------------------------------------

def test_criterion_07a_strict_feasibility_rates(paper_dataset, ws_matrix):
    p = build_logistic_problem(paper_dataset, 0.9, 0.9)
    ref = reference_optimum(p, iterations=200_000)
    slack = float(np.max(p.constraint_values(ref.x_star)))
    assert slack < -1e-3, "instance must be strictly feasible"
    eta = 1.0
    cfg = en.RunConfig(variant="deterministic", iterations=10_000, eta=eta,
                       seed=1, record_every=10)
    trace = en.run(p, ws_matrix, cfg, reference=ref)
    worst_ratio = 0.0
    ok = True
    for r in trace.records:
        if 100 <= r.t <= 10_000:
            envelope = me.strict_violation_bound(p, trace.sigma2, eta,
                                                 max(r.t, 2),
                                                 trace.config.step_scale)
            if r.violation_sq > envelope:
                ok = False
            worst_ratio = max(worst_ratio,
                              r.violation_sq * math.sqrt(r.t) / (eta * math.log(r.t)))
    assert report("7a strict-feasibility-rate", ok,
                  f"g(x*) max {slack:.3f}, sup ratio {worst_ratio:.3g}")


def test_criterion_07b_tradeoff_directions(binding_logistic, binding_reference,
                                           ws_matrix):
    p, ref = binding_logistic, binding_reference
    horizon = 10_000
    gaps, viols, viol_exps, saddle = [], [], [], []
    for r_exponent in (0.1, 0.25, 0.4):
        eta = horizon ** (-r_exponent)
        cfg = en.RunConfig(variant="deterministic", iterations=horizon,
                           eta=eta, seed=1, record_every=10)
        trace = en.run(p, ws_matrix, cfg, reference=ref)
        final = records_at(trace, horizon)
        gaps.append(final.max_gap)
        viols.append(final.violation_sq)
        viol_exps.append(me.rate_fit(trace, "violation_sq",
                                     (100, horizon)).exponent)
        f_eta, viol_eta = regularized_saddle(p, eta)
        saddle.append((f_eta - ref.f_star, viol_eta))
    ok = (bool(np.all(np.diff(gaps) > 0))
          and bool(np.all(np.diff(viols) < 0))
          and bool(np.all(np.diff(viol_exps) < 0)))
    detail = (f"max_gap at T {[f'{g:+.3e}' for g in gaps]}, "
              f"violation at T {[f'{v:.3e}' for v in viols]}, "
              f"violation exponents {[f'{e:+.3f}' for e in viol_exps]}; "
              f"saddle f-f* {[f'{g:+.3e}' for g, _ in saddle]}, "
              f"saddle violation {[f'{v:.3e}' for _, v in saddle]}")
    assert report("7b tradeoff-directions", ok, detail)


# ---------------------------------------------------------------------------
# criterion 8: stochastic bounds over 20 seeds
# ---------------------------------------------------------------------------

def stochastic_rate_bound(p, sigma2, eta, horizon):
    """Single-seed stochastic gap bound holding with probability 1 - 1/T:
    Theorem 2's R C plus 4 sqrt(10) n m^2 L^2 R^3 / eta, at the rate
    log(T) / (sqrt(T) - 1)."""
    c = me.thm2_constant(p, sigma2, eta, horizon)
    extra = 4.0 * math.sqrt(10.0) * p.n_agents * p.n_constraints ** 2 \
        * p.lipschitz ** 2 * p.radius ** 3 / eta
    return (p.radius * c + extra) * math.log(horizon) / (math.sqrt(horizon) - 1.0)


def test_criterion_08_stochastic_rate_bounds(paper_logistic, ws_matrix, paper_reference):
    start = time.time()
    eta = 1.0
    horizons = (100, 1_000, 10_000)
    gaps = {t: [] for t in horizons}
    single_violations = 0
    for seed in range(20):
        cfg = en.RunConfig(variant="stochastic", iterations=10_000, eta=eta,
                           seed=seed, record_every=10)
        trace = en.run(paper_logistic, ws_matrix, cfg,
                       reference=paper_reference)
        for t in horizons:
            gap = records_at(trace, t).max_gap
            gaps[t].append(gap)
            high_prob = stochastic_rate_bound(paper_logistic,
                                              ws_matrix.sigma2, eta, t)
            if gap > high_prob + paper_reference.residual + 1e-4:
                single_violations += 1
    mean_ok = all(
        float(np.mean(gaps[t]))
        <= me.rate_bound(paper_logistic, ws_matrix.sigma2, eta, t)
        + paper_reference.residual + 1e-4
        for t in horizons)
    elapsed = time.time() - start
    ok = mean_ok and single_violations == 0 and elapsed < 1800.0
    assert report("8 stochastic-rate-bounds", ok,
                  f"mean ok {mean_ok}, per-seed violations {single_violations}, "
                  f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 9: topology ordering on the wide-box (consensus-limited) instance
# ---------------------------------------------------------------------------

def test_criterion_09_topology_ordering(paper_dataset):
    p = build_logistic_problem(paper_dataset, 1.0, 1.0)
    ref = reference_optimum(p, iterations=200_000)
    topologies = {
        "ws": generate_watts_strogatz(100, 20, 0.02, seed=7),
        "er": generate_erdos_renyi(100, 0.06, seed=3),
        "lattice": generate_lattice8(10, 10),
        "barbell": generate_barbell(100, 1),
    }
    finals = {}
    for name, g in topologies.items():
        cfg = en.RunConfig(variant="deterministic", iterations=10_000,
                           eta=1.0, seed=1, record_every=10)
        trace = en.run(p, lazy_metropolis(g), cfg, reference=ref)
        finals[name] = records_at(trace, 10_000).eps
    ok = all(finals[slow] > finals[fast]
             for slow in ("barbell", "lattice") for fast in ("ws", "er"))
    assert report("9 topology-ordering", ok,
                  " ".join(f"{k}={v:.4f}" for k, v in finals.items()))


# ---------------------------------------------------------------------------
# criterion 10: regularization contrast on the tight-box instance
#
# With eta = 1 the decentralized run converges to the regularized saddle
# point, which is infeasible because the box binds; the unregularized
# centralized baseline converges to the feasible optimum. So the regularized
# run's violation must match the saddle's and exceed the baseline's tenfold:
# bounding the multipliers is paid for in constraint violation.
# ---------------------------------------------------------------------------

def test_criterion_10_regularization_contrast(binding_logistic,
                                              binding_reference, ws_matrix):
    p, ref = binding_logistic, binding_reference
    eta = 1.0
    cfg_d = en.RunConfig(variant="deterministic", iterations=10_000, eta=eta,
                         seed=1, init="random_feasible", record_every=10)
    decentralized = en.run(p, ws_matrix, cfg_d, reference=ref)
    cfg_c = en.RunConfig(variant="centralized_unregularized",
                         iterations=10_000, seed=1, init="random_feasible",
                         record_every=10)
    centralized = en.run(p, ws_matrix, cfg_c, reference=ref)
    viol_d = records_at(decentralized, 10_000).violation_sq
    viol_c = records_at(centralized, 10_000).violation_sq
    f_eta, viol_eta = regularized_saddle(p, eta)
    ok = (abs(viol_d - viol_eta) <= 0.05 * viol_eta
          and 10.0 * viol_c <= viol_d)
    assert report("10 regularization-contrast", ok,
                  f"decentralized {viol_d:.3e}, centralized {viol_c:.3e}, "
                  f"saddle violation {viol_eta:.3e}, "
                  f"saddle f-f* {f_eta - ref.f_star:+.3e}")


# ---------------------------------------------------------------------------
# criterion 11: auxiliary inequality suites
# ---------------------------------------------------------------------------

def test_criterion_11_inequality_suites():
    start = time.time()
    rng = np.random.default_rng(11)
    failures = 0
    for _ in range(10_000):
        length = int(rng.integers(1, 120))
        alphas = rng.random(length)
        if not me.check_product_sum_inequality(alphas, 1.0):
            failures += 1
    sqrt_inv = 1.0 / np.sqrt(np.arange(1.0, 10_002.0))
    prefix = np.concatenate([[0.0], np.cumsum(sqrt_inv)])
    for tau in range(1, 51):
        # exhaustive sweep of the checker itself
        failures += sum(not me.check_tau_inequality(tau, t)
                        for t in range(tau - 1, 10_001))
        # independent vectorized cross-check of the same inequality:
        # sum_{r=t-tau+1}^{t-1} 1/sqrt(r+1) = prefix[t] - prefix[t-tau+1]
        ts = np.arange(tau - 1, 10_001)
        sums = prefix[ts] - prefix[np.maximum(ts - tau + 1, 0)]
        lhs = np.sqrt(ts + 1.0) * sums
        failures += int(np.sum(lhs > tau ** 1.5 + 1e-12))
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 60.0
    assert report("11 inequality-suites", ok,
                  f"failures {failures}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 12: byte-identical determinism
# ---------------------------------------------------------------------------

def test_criterion_12_determinism(paper_logistic, ws_matrix, paper_reference,
                                  tmp_path, monkeypatch):
    ok = True
    for variant in ("deterministic", "stochastic"):
        cfg = en.RunConfig(variant=variant, iterations=500, eta=1.0, seed=9,
                           record_every=10)
        a = en.run(paper_logistic, ws_matrix, cfg, reference=paper_reference)
        b = en.run(paper_logistic, ws_matrix, cfg, reference=paper_reference)
        ok &= a.to_csv_text() == b.to_csv_text()

    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    argv = ["--set", "problem.n=16", "--set", "graph.n=16",
            "--set", "graph.k=4", "--set", "run.T=120",
            "--set", "run.variant=stochastic",
            "--set", "reference.iterations=2000"]
    assert cli.main(["run", "--out", "r1", *argv]) == 0
    assert cli.main(["run", "--out", "r2", *argv]) == 0
    ok &= ((tmp_path / "r1" / "trace.csv").read_bytes()
           == (tmp_path / "r2" / "trace.csv").read_bytes())

    sweep_argv = ["sweep", *argv, "--param", "eta", "--values", "0.5,1.0"]
    assert cli.main([*sweep_argv, "--out", "s1", "--threads", "1"]) == 0
    assert cli.main([*sweep_argv, "--out", "s2", "--threads", "2"]) == 0
    for leg in ("leg_eta_0.5", "leg_eta_1.0"):
        ok &= ((tmp_path / "s1" / leg / "trace.csv").read_bytes()
               == (tmp_path / "s2" / leg / "trace.csv").read_bytes())
    assert report("12 determinism", ok)
