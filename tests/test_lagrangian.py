"""Regularized Lagrangian values, subgradients, and constraint sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from pdnet import lagrangian as lg
from pdnet.problems import ProblemError

from conftest import make_custom_problem, toy_problem


ETA = 1.0


def rand_ball(rng, d):
    x = rng.normal(size=d)
    return x * rng.random() / np.linalg.norm(x)


def rand_dual(rng, m, scale=2.0):
    return rng.random(m) * scale


# -- value and gradients -------------------------------------------------------

def test_value_with_zero_multipliers(paper_logistic):
    x = np.full(5, 0.05)
    lam = np.zeros(10)
    f, _ = paper_logistic.objective(3, x)
    assert lg.lagrangian_value(paper_logistic, 3, x, lam, ETA) == pytest.approx(f)


def test_value_hand_arithmetic_toy():
    p = toy_problem()
    val = lg.lagrangian_value(p, 0, np.zeros(1), np.array([2.0]), ETA)
    # f(0) + 2 * g(0) - 0.5 * 1 * 4 = 0 - 1 - 2
    assert val == pytest.approx(-3.0)


def test_value_with_zero_constraints():
    f = lambda x: (float(x[0] ** 2), 2 * x)
    g = lambda x: (0.0, np.zeros(1))
    p = make_custom_problem([f], [g], lipschitz=2.0, radius=1.0, dim=1)
    lam = np.array([3.0])
    val = lg.lagrangian_value(p, 0, np.array([0.2]), lam, 0.5)
    assert val == pytest.approx(0.04 - 0.25 * 9.0)


def test_grad_x_zero_multipliers(paper_logistic):
    x = np.full(5, -0.03)
    _, gf = paper_logistic.objective(7, x)
    assert_allclose(lg.grad_x(paper_logistic, 7, x, np.zeros(10)), gf)


def test_grad_x_unit_multiplier_on_lower_box(paper_logistic):
    x = np.zeros(5)
    lam = np.zeros(10)
    lam[2] = 1.0  # lower-box constraint on coordinate 2, gradient -e_2
    _, gf = paper_logistic.objective(0, x)
    expected = gf.copy()
    expected[2] -= 1.0
    assert_allclose(lg.grad_x(paper_logistic, 0, x, lam), expected)


def test_grad_x_norm_bound(paper_logistic):
    rng = np.random.default_rng(0)
    L = paper_logistic.lipschitz
    for _ in range(100):
        x = rand_ball(rng, 5)
        lam = rand_dual(rng, 10)
        norm = np.linalg.norm(lg.grad_x(paper_logistic, 1, x, lam))
        assert norm <= L * (1.0 + lam.sum()) + 1e-12


def test_grad_lambda_cases(paper_logistic):
    x = np.full(5, 0.02)
    g = paper_logistic.constraint_values(x)
    assert_allclose(lg.grad_lambda(paper_logistic, x, np.zeros(10), ETA), g)
    lam = np.maximum(g, 0.0) + 0.5
    assert_allclose(lg.grad_lambda(paper_logistic, x, lam, 2.0), g - 2.0 * lam)


def test_grad_lambda_toy_hand_value():
    p = toy_problem()
    out = lg.grad_lambda(p, np.zeros(1), np.zeros(1), ETA)
    assert_allclose(out, [-0.5])


def test_negative_multiplier_rejected(paper_logistic):
    with pytest.raises(ProblemError):
        lg.grad_x(paper_logistic, 0, np.zeros(5), -np.ones(10))


def test_regularization_config_validation():
    with pytest.raises(ProblemError):
        lg.lagrangian_value(toy_problem(), 0, np.zeros(1), np.zeros(1), eta=0.0)


@pytest.mark.parametrize("eta", [-1.0, 1e-300, 1e300, math.inf, math.nan])
def test_eta_outside_the_engine_range_rejected(eta):
    p = toy_problem()
    with pytest.raises(ProblemError, match="outside"):
        lg.lagrangian_value(p, 0, np.zeros(1), np.zeros(1), eta)
    with pytest.raises(ProblemError, match="outside"):
        lg.grad_lambda(p, np.zeros(1), np.zeros(1), eta)


# -- sampling distribution ------------------------------------------------------

def test_sampling_distribution_uniform_at_zero():
    assert_allclose(lg.sampling_distribution(np.zeros(4)), np.full(4, 0.25))


def test_sampling_distribution_degenerate():
    assert_allclose(lg.sampling_distribution(np.array([2.0, 0, 0])), [1, 0, 0])


def test_sampling_distribution_normalizes():
    assert_allclose(lg.sampling_distribution(np.array([1.0, 3.0])), [0.25, 0.75])


def test_sampling_distribution_of_no_constraints():
    with pytest.raises(ProblemError, match="no constraint to sample"):
        lg.sampling_distribution(np.array([]))


# -- stochastic subgradient -----------------------------------------------------

def test_stochastic_grad_zero_multipliers(paper_logistic):
    x = np.full(5, 0.01)
    _, gf = paper_logistic.objective(4, x)
    for k in (0, 9):
        assert_allclose(lg.stochastic_grad_x(paper_logistic, 4, x,
                                             np.zeros(10), k), gf)


def test_stochastic_grad_single_constraint_matches_deterministic():
    f = lambda x: (float(x[0]), np.ones(1))
    g = lambda x: (float(x[0] - 0.3), np.array([1.0]))
    p = make_custom_problem([f], [g], lipschitz=1.0, radius=1.0, dim=1)
    x, lam = np.array([0.1]), np.array([0.7])
    assert_allclose(lg.stochastic_grad_x(p, 0, x, lam, 0),
                    lg.grad_x(p, 0, x, lam))


def test_stochastic_grad_index_out_of_range(paper_logistic):
    with pytest.raises(ProblemError):
        lg.stochastic_grad_x(paper_logistic, 0, np.zeros(5), np.zeros(10), 10)


def test_stochastic_grad_index_must_be_an_integer(paper_logistic):
    with pytest.raises(ProblemError, match="constraint index 2.5 is not an integer"):
        lg.stochastic_grad_x(paper_logistic, 0, np.zeros(5), np.zeros(10), 2.5)


@pytest.mark.parametrize("agent", [-1, 100, 2.5])
@pytest.mark.parametrize("call", [
    lambda p, i, x, lam: lg.grad_x(p, i, x, lam),
    lambda p, i, x, lam: lg.lagrangian_value(p, i, x, lam, ETA),
    lambda p, i, x, lam: lg.stochastic_grad_x(p, i, x, lam, 0)])
def test_agent_index_must_name_an_agent(call, agent, paper_logistic):
    # a negative index would otherwise read agent n - 1's row
    assert paper_logistic.n_agents == 100
    with pytest.raises(ProblemError, match=r"agent .* not an integer in \[0, 100\)"):
        call(paper_logistic, agent, np.zeros(5), np.zeros(10))


@pytest.mark.parametrize("k", [True, np.float64(1.0), np.nan])
def test_constraint_index_is_no_bool_or_float(k, paper_logistic):
    with pytest.raises(ProblemError, match="constraint index .* is not an integer"):
        lg.stochastic_grad_x(paper_logistic, 0, np.zeros(5), np.zeros(10), k)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", [
    lambda p, lam: lg.lagrangian_value(p, 0, np.zeros(5), lam, ETA),
    lambda p, lam: lg.grad_x(p, 0, np.zeros(5), lam),
    lambda p, lam: lg.grad_lambda(p, np.zeros(5), lam, ETA),
    lambda p, lam: lg.sampling_distribution(lam),
    lambda p, lam: lg.stochastic_grad_x(p, 0, np.zeros(5), lam, 0)])
def test_multipliers_must_be_finite(call, bad, paper_logistic):
    # a NaN gave NaN probabilities and directions; inf gave NaN too
    lam = np.zeros(10)
    lam[3] = bad
    with pytest.raises(ProblemError, match="negative or non-finite"):
        call(paper_logistic, lam)


@pytest.mark.parametrize("x", [np.zeros((1, 5)), np.float64(0.0), np.zeros(4)])
@pytest.mark.parametrize("call", [
    lambda p, x: lg.lagrangian_value(p, 0, x, np.zeros(10), ETA),
    lambda p, x: lg.grad_x(p, 0, x, np.zeros(10)),
    lambda p, x: lg.grad_lambda(p, x, np.zeros(10), ETA),
    lambda p, x: lg.stochastic_grad_x(p, 0, x, np.zeros(10), 0)])
def test_single_agent_point_is_one_vector(call, x, paper_logistic):
    # a (1, d) point reached an einsum with one subscript too few
    with pytest.raises(ProblemError, match=r"expected shape \(5,\)"):
        call(paper_logistic, x)


@pytest.mark.parametrize("family", ["logistic", "hinge"])
def test_unbiasedness_exact_enumeration(family, paper_logistic, paper_hinge):
    p = paper_logistic if family == "logistic" else paper_hinge
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rand_ball(rng, p.dim)
        lam = rand_dual(rng, p.n_constraints)
        if rng.random() < 0.1:
            lam = np.zeros(p.n_constraints)
        probs = lg.sampling_distribution(lam)
        agent = int(rng.integers(p.n_agents))
        mixed = sum(probs[k] * lg.stochastic_grad_x(p, agent, x, lam, k)
                    for k in range(p.n_constraints))
        assert_allclose(mixed, lg.grad_x(p, agent, x, lam), atol=1e-12)


# -- convexity structure --------------------------------------------------------

def test_concave_in_lambda(paper_logistic):
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rand_ball(rng, 5)
        lam1, lam2 = rand_dual(rng, 10), rand_dual(rng, 10)
        th = rng.random()
        mid = lg.lagrangian_value(paper_logistic, 2, x,
                                  th * lam1 + (1 - th) * lam2, ETA)
        ends = (th * lg.lagrangian_value(paper_logistic, 2, x, lam1, ETA)
                + (1 - th) * lg.lagrangian_value(paper_logistic, 2, x, lam2, ETA))
        assert mid >= ends - 1e-10


def test_convex_in_x(paper_logistic):
    rng = np.random.default_rng(4)
    for _ in range(50):
        x1, x2 = rand_ball(rng, 5), rand_ball(rng, 5)
        lam = rand_dual(rng, 10)
        th = rng.random()
        mid = lg.lagrangian_value(paper_logistic, 5, th * x1 + (1 - th) * x2,
                                  lam, ETA)
        ends = (th * lg.lagrangian_value(paper_logistic, 5, x1, lam, ETA)
                + (1 - th) * lg.lagrangian_value(paper_logistic, 5, x2, lam, ETA))
        assert mid <= ends + 1e-10


def test_grad_lambda_matches_finite_differences(paper_logistic):
    rng = np.random.default_rng(6)
    h = 1e-7
    for _ in range(20):
        x = rand_ball(rng, 5)
        lam = rand_dual(rng, 10) + 0.1
        grad = lg.grad_lambda(paper_logistic, x, lam, ETA)
        for k in range(10):
            e = np.zeros(10)
            e[k] = h
            num = (lg.lagrangian_value(paper_logistic, 0, x, lam + e, ETA)
                   - lg.lagrangian_value(paper_logistic, 0, x, lam - e, ETA)) / (2 * h)
            assert num == pytest.approx(grad[k], abs=1e-6)


# -- counter-based streams -------------------------------------------------------

def test_iteration_uniforms_deterministic():
    a = lg.iteration_uniforms(9, 100, 16)
    b = lg.iteration_uniforms(9, 100, 16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, lg.iteration_uniforms(9, 101, 16))
    assert not np.array_equal(a, lg.iteration_uniforms(10, 100, 16))


@pytest.mark.parametrize("seed", [0, 1, 5, 2 ** 40, 2 ** 63])
def test_iteration_uniforms_are_numpy_philox(seed):
    # re-keying one stream must give the bits of a fresh numpy Philox
    # generator, whatever the stream drew before
    stream = lg.uniform_stream()
    for t in (0, 1, 2, 99, 2 ** 33, 2 ** 62):
        for n in (1, 3, 4, 5, 100, 2001):
            expected = np.random.Generator(np.random.Philox(key=[seed, t])).random(n)
            assert np.array_equal(lg.iteration_uniforms(seed, t, n, stream),
                                  expected)
            assert np.array_equal(lg.iteration_uniforms(seed, t, n), expected)
            # calls for other keys, and raw draws, in between
            lg.iteration_uniforms(seed + 1, t, 7, stream)
            stream.random(3)
            stream.bit_generator.random_raw(5)


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 64 - 1])
def test_rekeyed_normals_are_the_per_agent_generator(seed):
    # the random_feasible starts draw agent i's normals from one stream
    # re-keyed to (seed, 2^63 + i), each a fresh generator's bits
    stream = lg.uniform_stream()
    for agent in (0, 1, 99, 10 ** 5 - 1):
        # a list key holding 2^63 + i would pass through float64
        key = np.array([seed, 2 ** 63 + agent], dtype=np.uint64)
        for d in (1, 5, 17):
            expected = np.random.Generator(np.random.Philox(key=key)).normal(size=d)
            assert np.array_equal(
                lg.rekeyed(stream, seed, 2 ** 63 + agent).normal(size=d),
                expected)
            stream.normal(size=3)


def _where_sample(lam_rows, uniforms):
    """The sampler as first written: probabilities through two np.where."""
    m = lam_rows.shape[1]
    totals = lam_rows.sum(axis=1, keepdims=True)
    probs = np.where(totals > 0.0, lam_rows / np.where(totals > 0.0, totals, 1.0),
                     1.0 / m)
    ks = (np.cumsum(probs, axis=1) <= uniforms[:, None]).sum(axis=1)
    return np.minimum(ks, m - 1)


@pytest.mark.parametrize("rows", ["zero", "positive", "mixed"])
def test_sample_constraint_indices_match_the_where_formula(rows):
    rng = np.random.default_rng(3)
    lam = rng.random((200, 6)) * (rng.random((200, 6)) > 0.3)
    lam[:, 0] += 0.125
    if rows == "zero":
        lam[:] = 0.0
    elif rows == "mixed":
        lam[::3] = 0.0
    totals = lam.sum(axis=1)
    cumulative = np.cumsum(lam / np.where(totals > 0.0, totals, 1.0)[:, None],
                           axis=1)
    below_one = np.nextafter(1.0, 0.0)
    for u in (rng.random(200), np.zeros(200), np.full(200, below_one),
              cumulative[np.arange(200), rng.integers(0, 6, 200)],
              np.full(200, 1.0 / 6.0), np.full(200, 0.5)):
        assert np.array_equal(lg.sample_constraint_indices(lam, u),
                              _where_sample(lam, u))


#: multipliers a row may hold: zeros, subnormals, and sums that overflow
SAMPLED_LAMBDAS = [0.0, 5e-324, 1e-300, 0.125, 0.3, 1.0, 7.0, 1e300, 1e308]


@st.composite
def sampler_cases(draw):
    """Rows of multipliers (some all zero) and one uniform per row: drawn,
    0, just below 1, 1, or at and just above the row's last cumulative sum."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    lam = np.array(draw(st.lists(st.sampled_from(SAMPLED_LAMBDAS),
                                 min_size=n * m, max_size=n * m))).reshape(n, m)
    lam[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
    totals = np.add.reduce(lam, axis=1)
    last = np.add.accumulate(lg._sampling_probabilities(lam, totals),
                             axis=1)[:, -1]
    modes = draw(st.lists(st.sampled_from(["drawn", "zero", "below_one",
                                           "one", "last", "above_last"]),
                          min_size=n, max_size=n))
    drawn = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                          min_size=n, max_size=n))
    u = np.array([{"drawn": drawn[i], "zero": 0.0,
                   "below_one": np.nextafter(1.0, 0.0), "one": 1.0,
                   "last": last[i],
                   "above_last": np.nextafter(last[i], np.inf)}[mode]
                  for i, mode in enumerate(modes)])
    return lam, u


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sampler_cases())
def test_sampler_count_over_m_minus_1_columns_is_the_capped_count(case):
    # the cumulative sums are nondecreasing, so counting the first m - 1
    # columns gives np.minimum(count over all m, m - 1), as first written
    lam, u = case
    ks = lg.sample_constraint_indices(lam, u)
    assert ks.dtype == np.intp
    assert np.array_equal(ks, _where_sample(lam, u))
    totals = np.add.reduce(lam, axis=1)
    assert np.array_equal(lg.sample_constraint_indices(lam, u, totals), ks)


def test_sample_constraint_indices_rows():
    lam = np.array([[0.0, 0.0, 0.0],
                    [2.0, 0.0, 0.0],
                    [1.0, 1.0, 2.0]])
    u = np.array([0.5, 0.99, 0.6])
    ks = lg.sample_constraint_indices(lam, u)
    assert ks[0] == 1      # uniform thirds, 0.5 lands in the middle
    assert ks[1] == 0      # degenerate distribution
    assert ks[2] == 2      # cumulative (0.25, 0.5, 1.0), 0.6 -> last
    assert ks.max() < 3


def test_sample_constraint_indices_match_scalar_distribution():
    rng = np.random.default_rng(12)
    lam = rng.random((500, 6)) * (rng.random((500, 1)) > 0.2)
    u = rng.random(500)
    ks = lg.sample_constraint_indices(lam, u)
    for i in (0, 17, 333):
        probs = lg.sampling_distribution(lam[i])
        cdf = np.cumsum(probs)
        expected = int(np.searchsorted(cdf, u[i], side="right"))
        assert ks[i] == min(expected, 5)
