"""Run metrics, theory constants, inequalities, and rate fitting."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdnet import metrics as me
from pdnet.engine import AgentStates, RunConfig, run
from pdnet.problems import (ProblemSpec, ReferenceSolution, box_constraints,
                            build_hinge_problem, build_logistic_problem,
                            generate_dataset)

from conftest import make_custom_problem


def states_at(points, lam=None):
    """AgentStates whose running averages sit exactly at ``points``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    lam = np.zeros((n, 1)) if lam is None else np.atleast_2d(lam)
    return AgentStates(x=points.copy(), lam=lam.astype(float),
                       avg_numerator=points.copy(), weight_sum=1.0)


def linear_problem(c=1.0):
    """Single agent, f(x) = c x on d = 1 with a [-0.5, 0.5] box."""
    oracle = lambda x: (float(c * x[0]), np.array([c]))
    lower, upper = np.array([-0.5]), np.array([0.5])
    return make_custom_problem([oracle], box_constraints(lower, upper),
                               lipschitz=abs(c), radius=1.0, dim=1,
                               box=(lower, upper))


# -- epsilon / delta / violation ---------------------------------------------

def test_epsilon_is_one_at_start():
    p = linear_problem()
    ref = ReferenceSolution(f_star=-0.5, x_star=np.array([-0.5]),
                            method="grid-search", residual=0.0)
    init = states_at([[0.3]])
    assert me.epsilon_G(p, ref, init, init) == pytest.approx(1.0)


def test_epsilon_zero_at_optimum():
    p = linear_problem()
    ref = ReferenceSolution(f_star=-0.5, x_star=np.array([-0.5]),
                            method="grid-search", residual=0.0)
    assert me.epsilon_G(p, ref, states_at([[-0.5]]), states_at([[0.3]])) == 0.0


def test_epsilon_halfway_is_half():
    p = linear_problem()
    ref = ReferenceSolution(f_star=-0.5, x_star=np.array([-0.5]),
                            method="grid-search", residual=0.0)
    # f at 0.3 is 0.3, gap 0.8; halfway in value means f = -0.1
    val = me.epsilon_G(p, ref, states_at([[-0.1]]), states_at([[0.3]]))
    assert val == pytest.approx(0.5)


def test_epsilon_requires_defined_averages():
    p = linear_problem()
    ref = ReferenceSolution(f_star=0.0, x_star=np.zeros(1),
                            method="grid-search", residual=0.0)
    empty = AgentStates(x=np.zeros((1, 1)), lam=np.zeros((1, 1)),
                        avg_numerator=np.zeros((1, 1)), weight_sum=0.0)
    with pytest.raises(me.MetricError):
        me.epsilon_G(p, ref, empty, states_at([[0.3]]))


def test_epsilon_degenerate_normalizer():
    p = linear_problem()
    ref = ReferenceSolution(f_star=0.3, x_star=np.array([0.3]),
                            method="grid-search", residual=0.0)
    with pytest.raises(me.MetricError):
        me.epsilon_G(p, ref, states_at([[0.0]]), states_at([[0.3]]))


def test_delta_cases():
    p = linear_problem()
    init = states_at([[0.3]])
    assert me.delta_G(p, init, init) == pytest.approx(1.0)
    # box center: g = (-0.5, -0.5), the same norm as scaled initial states
    val = me.delta_G(p, states_at([[0.0]]), init)
    expected = np.linalg.norm([-0.5, -0.5]) / np.linalg.norm([-0.8, -0.2])
    assert val == pytest.approx(expected)


@pytest.mark.parametrize("variant", ["deterministic", "stochastic"])
@pytest.mark.parametrize("init", ["origin", "random_feasible"])
def test_run_metrics_take_the_initial_states(variant, init, paper_logistic,
                                              ws_matrix, paper_reference):
    # a trace's initial states have no averages yet: the metrics normalize
    # at their iterates, as the records do, and give the last record's bits
    cfg = RunConfig(variant=variant, init=init, eta=1.0, iterations=30,
                    seed=4)
    trace = run(paper_logistic, ws_matrix, cfg, reference=paper_reference)
    final, initial = trace.final_states, trace.initial_states
    last = trace.records[-1]
    assert initial.averages() is None
    assert repr(me.epsilon_G(paper_logistic, paper_reference, final,
                             initial)) == repr(last.eps)
    assert repr(me.delta_G(paper_logistic, final, initial)) == repr(last.delta)
    assert (repr(me.violation_functional(paper_logistic, final))
            == repr(last.violation_sq))


def test_violation_functional_cases():
    p = linear_problem()
    assert me.violation_functional(p, states_at([[0.0]])) == 0.0
    # single upper constraint violated by 0.3
    g = lambda x: (float(x[0] - 0.2), np.array([1.0]))
    p1 = make_custom_problem([lambda x: (0.0, np.zeros(1))], [g],
                             lipschitz=1.0, radius=1.0, dim=1)
    assert me.violation_functional(p1, states_at([[0.5]])) == pytest.approx(0.09)


def test_violation_functional_box_example(paper_logistic):
    x = np.zeros((1, 5))
    x[0, 0] = 0.2  # upper bound 0.1 exceeded by 0.1
    states = states_at(x, lam=np.zeros((1, 10)))
    assert me.violation_functional(paper_logistic, states) == pytest.approx(0.01)


def test_violation_averages_across_agents(paper_logistic):
    pts = np.zeros((2, 5))
    pts[0, 0] = 0.3
    pts[1, 0] = -0.1  # mean coordinate 0.1, exactly on the bound
    states = states_at(pts, lam=np.zeros((2, 10)))
    assert me.violation_functional(paper_logistic, states) == pytest.approx(0.0)


# -- rate-bound constants --------------------------------------------------------

def test_thm2_constant_exceeds_one(paper_logistic, ws_matrix):
    c = me.thm2_constant(paper_logistic, ws_matrix.sigma2, 1.0, 10_000)
    assert c > 1.0


def test_thm2_constant_large_eta_limit(paper_logistic, ws_matrix):
    c_inf = me.thm2_constant(paper_logistic, ws_matrix.sigma2, 1e12, 10_000)
    m, lip, radius = 10, 1.0, 1.0
    log_term = math.log(10_000 * math.sqrt(100 * 10_000)) / (1 - ws_matrix.sigma2)
    expected = 1 + 2.5 * m * lip**2 * radius**2 + 20 * lip**2 * log_term**1.5
    assert c_inf == pytest.approx(expected, rel=1e-6)


def test_thm2_constant_independent_reevaluation(paper_logistic, ws_matrix):
    # recompute the constant from scratch at the experiment defaults
    sigma2 = ws_matrix.sigma2
    n, m, lip, radius, eta, horizon = 100, 10, 1.0, 1.0, 1.0, 10_000
    amplification = 1.0 + n * m**1.5 * lip * radius / eta
    mixing = math.log(horizon * math.sqrt(n * horizon)) / (1.0 - sigma2)
    by_hand = (1.0 + 2.5 * m * lip**2 * radius**2
               + 20.0 * lip**2 * amplification**2 * mixing**1.5)
    assert me.thm2_constant(paper_logistic, sigma2, eta, horizon) \
        == pytest.approx(by_hand, rel=1e-12)
    assert me.rate_bound(paper_logistic, sigma2, eta, horizon) \
        == pytest.approx(radius * by_hand * math.log(horizon)
                         / (math.sqrt(horizon) - 1), rel=1e-12)


def test_thm2_constant_needs_horizon(paper_logistic, ws_matrix):
    with pytest.raises(me.MetricError):
        me.thm2_constant(paper_logistic, ws_matrix.sigma2, 1.0, 1)


def test_bound_envelopes_positive(paper_logistic, ws_matrix):
    assert me.lambda_norm_bound(paper_logistic, 2.0) == pytest.approx(250.0)
    assert me.grad_x_norm_bound(paper_logistic, 1.0) \
        == pytest.approx(1.0 + 100 * 10**1.5)
    assert me.grad_lambda_excess_bound(paper_logistic) == pytest.approx(20.0)
    assert me.consensus_bound(paper_logistic, ws_matrix.sigma2, 1.0, 10_000,
                              0.05) > 0
    b = me.strict_violation_bound(paper_logistic, ws_matrix.sigma2, 1.0,
                                  10_000, 1.0)
    b_small = me.strict_violation_bound(paper_logistic, ws_matrix.sigma2, 1.0,
                                        1_000_000, 1.0)
    assert 0 < b_small < b


# -- appendix inequalities -------------------------------------------------------

def test_product_sum_all_ones_telescopes():
    assert me.check_product_sum_inequality([1.0, 1.0, 1.0, 1.0], 1.0)


def test_product_sum_single_term():
    assert me.check_product_sum_inequality([0.37], 1.0)


def test_product_sum_random_sequences():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        T = int(rng.integers(1, 60))
        alphas = rng.random(T)
        assert me.check_product_sum_inequality(alphas, 1.0)


def test_product_sum_precondition():
    with pytest.raises(me.MetricError):
        me.check_product_sum_inequality([1.5], 1.0)


def test_tau_inequality_empty_sum():
    assert me.check_tau_inequality(1, 5)


def test_tau_inequality_hand_case():
    # tau=2, t=1: sqrt(2) <= 2 sqrt(2)
    total = math.sqrt(2.0)
    assert total <= 2.0 ** 1.5
    assert me.check_tau_inequality(2, 1)


def test_tau_inequality_small_sweep():
    for tau in range(1, 13):
        for t in range(tau - 1, 300, 7):
            assert me.check_tau_inequality(tau, t)


def test_tau_inequality_preconditions():
    with pytest.raises(me.MetricError):
        me.check_tau_inequality(0, 5)
    with pytest.raises(me.MetricError):
        me.check_tau_inequality(5, 3)


# -- rate fitting ------------------------------------------------------------------

def fake_records(ts, values):
    return [me.IterationRecord(t=t, eps=v, delta=v, max_lambda_norm=0.0,
                               consensus_diameter=0.0, thm2_bound=float("nan"),
                               violation_sq=v, max_gap=float("nan"),
                               sum_lambda_sq=0.0, max_grad_x_norm=0.0,
                               max_grad_lambda_excess=0.0)
            for t, v in zip(ts, values)]


def test_rate_fit_recovers_power_law():
    ts = np.arange(10, 2000, 10)
    recs = fake_records(ts, 3.0 / np.sqrt(ts))
    fit = me.rate_fit(recs, "eps", (10, 2000))
    assert fit.exponent == pytest.approx(-0.5, abs=1e-6)
    assert fit.r2 == pytest.approx(1.0, abs=1e-9)


def test_rate_fit_constant_metric():
    ts = np.arange(10, 500, 10)
    fit = me.rate_fit(fake_records(ts, np.full(len(ts), 2.5)), "eps", (10, 500))
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_requires_enough_positive_records():
    ts = [10, 20, 30]
    with pytest.raises(me.MetricError):
        me.rate_fit(fake_records(ts, [1, 1, 1]), "eps", (10, 30))
    ts = np.arange(10, 500, 10)
    vals = np.ones(len(ts))
    vals[3] = 0.0
    with pytest.raises(me.MetricError):
        me.rate_fit(fake_records(ts, vals), "eps", (10, 500))


def test_rate_fit_rejects_an_unknown_column():
    # the trace.csv header says eps_G; the record field is eps
    ts = np.arange(10, 500, 10)
    with pytest.raises(me.MetricError, match="unknown record field 'eps_G'; "
                                             "one of t, eps, delta"):
        me.rate_fit(fake_records(ts, np.ones(len(ts))), "eps_G", (10, 500))


def zero_directions(states, m=2):
    """Zero primal and dual step directions for ``states``' agents."""
    n, d = states.x.shape
    return dict(grad_x_rows=np.zeros((n, d)), grad_lambda_rows=np.zeros((n, m)))


def test_compute_record_degenerate_normalizer_reports_absolute():
    p = linear_problem()
    ref = ReferenceSolution(f_star=0.0, x_star=np.zeros(1),
                            method="grid-search", residual=0.0)
    states = states_at([[0.2]])
    rec = me.compute_record(p, states, t=0, eta=1.0, sigma2=0.5, ref=ref,
                            initial_fgaps=np.array([1e-16]),
                            initial_gnorms=np.array([1.0]),
                            **zero_directions(states))
    assert rec.eps_absolute
    assert rec.eps == pytest.approx(0.2)


def test_compute_record_degenerate_constraint_normalizer_gives_nan_delta():
    p = linear_problem()
    states = states_at([[0.2]])
    rec = me.compute_record(p, states, t=0, eta=1.0, sigma2=0.5, ref=None,
                            initial_fgaps=None, initial_gnorms=np.array([1e-16]),
                            **zero_directions(states))
    assert math.isnan(rec.delta)
    assert rec.violation_sq == 0.0


def test_compute_record_rate_bound_needs_a_reference():
    p = linear_problem()
    ref = ReferenceSolution(f_star=0.0, x_star=np.zeros(1),
                            method="grid-search", residual=0.0)
    states = states_at([[0.2]])
    common = dict(initial_gnorms=np.array([1.0]), **zero_directions(states))
    with_ref = me.compute_record(p, states, t=5, eta=1.0, sigma2=0.5, ref=ref,
                                 initial_fgaps=np.array([0.5]), **common)
    without = me.compute_record(p, states, t=5, eta=1.0, sigma2=0.5, ref=None,
                                initial_fgaps=None, **common)
    assert math.isfinite(with_ref.thm2_bound)
    assert math.isnan(without.thm2_bound) and math.isnan(without.max_gap)


def full_objective_maxima(p, points, f_star, normalizers):
    """(eps, max_gap, eps_absolute) from f at every row, as the record
    took them before rows were pruned."""
    fgaps = p.ops.mean_objective_many(points) - f_star
    if np.min(np.abs(normalizers)) < me.DEGENERATE_NORMALIZER:
        return float(np.max(np.abs(fgaps))), float(np.max(fgaps)), True
    return (float(np.max(np.abs(fgaps / normalizers))), float(np.max(fgaps)),
            False)


def output_cloud(rng, d):
    """Outputs for the prune property test: a spread cloud, a cloud of
    exact and one-ulp ties, or identical rows (t = 0 from the origin)."""
    n = int(rng.integers(2, 80))
    kind = rng.integers(3)
    if kind == 2:
        return np.tile(rng.normal(size=d) * rng.uniform(0.0, 0.2), (n, 1))
    center = rng.normal(size=d)
    center *= rng.uniform(0.0, 0.8) / np.linalg.norm(center)
    spread = 10.0 ** rng.uniform(-17, -0.5)
    cloud = center + spread * rng.normal(size=(n, d))
    if kind == 1:
        cloud = cloud[rng.integers(0, max(1, n // 4), size=n)]
        bumped = rng.random(cloud.shape) < 0.3
        cloud[bumped] = np.nextafter(cloud[bumped],
                                     np.where(rng.random(bumped.sum()) < 0.5,
                                              -np.inf, np.inf))
    return cloud


@pytest.mark.parametrize("family", ["logistic", "hinge"])
def test_pruned_objective_record_equals_the_full_record(family, monkeypatch):
    evaluated = []
    evaluate = ProblemSpec.mean_objective_many

    def counted(self, points):
        evaluated.append(len(points))
        return evaluate(self, points)

    monkeypatch.setattr(ProblemSpec, "mean_objective_many", counted)
    rng = np.random.default_rng(23 if family == "logistic" else 29)
    build = build_logistic_problem if family == "logistic" else build_hinge_problem
    rows = 0
    for trial in range(400):
        d = int(rng.integers(1, 8))
        p = build(generate_dataset(int(rng.integers(1, 60)), d, seed=trial),
                  0.1, 0.1)
        outputs = output_cloud(rng, d)
        values = p.ops.mean_objective_many(outputs)
        # f* below, among or above the outputs' values: a regularized run's
        # outputs can sit below f*
        f_star = float(rng.choice([values.min() - rng.uniform(0.0, 0.1),
                                   np.median(values),
                                   values.max() + rng.uniform(0.0, 0.1)]))
        # init=origin gives every agent one normalizer, random_feasible one
        # each; some are degenerate, and some are negative
        if trial % 2:
            normalizers = np.full(len(outputs), rng.normal())
        else:
            normalizers = rng.normal(size=len(outputs)) * 10.0 ** rng.uniform(-3, 1)
        if trial % 7 == 3:
            normalizers[rng.integers(len(outputs))] = rng.choice([0.0, 1e-16])
        ref = ReferenceSolution(f_star=f_star, x_star=np.zeros(d),
                                method="literal", residual=0.0)
        expected = full_objective_maxima(p, outputs, f_star, normalizers)
        evaluated.clear()
        states = states_at(outputs)
        rec = me.compute_record(p, states, t=5, eta=1.0,
                                sigma2=0.5, ref=ref, initial_fgaps=normalizers,
                                initial_gnorms=np.ones(len(outputs)),
                                **zero_directions(states))
        rows += sum(evaluated)
        got = (rec.eps, rec.max_gap, rec.eps_absolute)
        assert repr(got) == repr(expected), (trial, got, expected)
        initial = states_at(outputs + 0.5) if trial % 2 else states_at(
            np.zeros_like(outputs))
        init_gaps = p.ops.mean_objective_many(initial.averages()) - f_star
        if np.min(np.abs(init_gaps)) < me.DEGENERATE_NORMALIZER:
            continue
        eps = me.epsilon_G(p, ref, states_at(outputs), initial)
        assert repr(eps) == repr(full_objective_maxima(
            p, outputs, f_star, init_gaps)[0]), trial
    # the bracket leaves most rows unevaluated
    assert rows < 0.5 * 400 * 40


def test_objective_values_evaluate_equal_rows_once(paper_logistic, monkeypatch):
    evaluated = []
    evaluate = ProblemSpec.mean_objective_many
    monkeypatch.setattr(ProblemSpec, "mean_objective_many",
                        lambda self, pts: evaluated.append(len(pts))
                        or evaluate(self, pts))
    zeros = np.zeros((100, 5))
    values = me.objective_values(paper_logistic, zeros)
    assert evaluated == [1]
    assert values.tobytes() == evaluate(paper_logistic, zeros).tobytes()
    # signed zeros compare equal and give the same bits
    mixed = zeros.copy()
    mixed[::3, 1] = -0.0
    assert (me.objective_values(paper_logistic, mixed).tobytes()
            == evaluate(paper_logistic, mixed).tobytes())


def test_record_csv_row_is_plain_floats():
    rec = fake_records([7], [0.25])[0]
    row = me.record_csv_row(rec)
    assert row.startswith("7,0.25,0.25,")
    assert "np." not in row


def one_shot_diameter(points):
    diffs = points[:, None, :] - points[None, :, :]
    return float(np.sqrt(np.max(np.sum(diffs ** 2, axis=2))))


def scanned_rows(monkeypatch):
    """Record the row count of every blocked scan ``outputs_diameter`` runs."""
    sizes = []
    scan = me._block_max_sq

    def counting(points):
        sizes.append(points.shape[0])
        return scan(points)

    monkeypatch.setattr(me, "_block_max_sq", counting)
    return sizes


def on_sphere(rng, pairs, d):
    """2 * pairs antipodal points on the unit sphere, so every row is at
    the same distance from the mean up to rounding."""
    v = rng.normal(size=(pairs, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.concatenate([v, -v])


@pytest.mark.parametrize("n", [1, 2, me.DIAMETER_BLOCK - 1, me.DIAMETER_BLOCK,
                               me.DIAMETER_BLOCK + 1, 3 * me.DIAMETER_BLOCK + 5])
def test_outputs_diameter_matches_one_shot_formula(n):
    # the pruned scan does the per-pair sums of the n x n x d formula in
    # the same order and takes one sqrt of the largest, so it is bit-equal
    rng = np.random.default_rng(n)
    for d in (1, 5, 17):
        for offset in (0.0, 1e4, -1e8, 1e8):
            points = rng.normal(size=(n, d)) * 3.0 + offset
            assert me.outputs_diameter(points) == one_shot_diameter(points)
            # duplicated rows, and ties from a small integer grid
            dup = np.repeat(points[: n // 2 + 1], 2, axis=0)[:n]
            grid = rng.integers(-2, 3, size=(n, d)) + offset
            for p in (dup, grid):
                assert me.outputs_diameter(p) == one_shot_diameter(p)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 17])
def test_outputs_diameter_on_spheres(d):
    # many antipodal pairs tie with the lower bound up to rounding, which
    # the prune slack must absorb; shifts up to 1e8 stress it further
    rng = np.random.default_rng(d)
    for _ in range(60):
        points = on_sphere(rng, int(rng.integers(1, 40)), d)
        points = (points * rng.uniform(0.1, 10.0)
                  + rng.normal(size=d) * 10.0 ** rng.integers(0, 9))
        assert me.outputs_diameter(points) == one_shot_diameter(points)


def test_outputs_diameter_sphere_keeps_every_row(monkeypatch):
    # the worst case of the prune: every row is as far from the mean as
    # the farthest one, so every row is scanned
    sizes = scanned_rows(monkeypatch)
    points = on_sphere(np.random.default_rng(5), 40, 5)
    assert me.outputs_diameter(points) == one_shot_diameter(points)
    assert sizes == [80]


def test_outputs_diameter_identical_rows_skip_the_scan(monkeypatch):
    # the t = 0 record of a zero-initialised run: O(nd), no pairwise scan
    sizes = scanned_rows(monkeypatch)
    for points in (np.zeros((2000, 5)), np.full((7, 3), 0.1),
                   np.full((1, 17), -2.5)):
        assert me.outputs_diameter(points) == 0.0
    assert sizes == []


def test_outputs_diameter_prunes_a_spread_cloud(monkeypatch):
    sizes = scanned_rows(monkeypatch)
    points = np.random.default_rng(3).normal(size=(2000, 5))
    assert me.outputs_diameter(points) == one_shot_diameter(points)
    assert sum(sizes) < 200


def test_outputs_diameter_non_finite_matches_full_scan():
    base = np.random.default_rng(4).normal(size=(70, 3))
    for bad in (np.nan, np.inf, 1e200):
        points = base.copy()
        points[5, 1] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            np.testing.assert_equal(me.outputs_diameter(points),
                                    one_shot_diameter(points))
