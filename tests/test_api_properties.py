"""Hostile arguments never escape the library as bare Python or numpy errors.

Every count, seed and index the library takes goes through
``problems.checked_int``. Each test here drives one entry point with
counts, seeds and indices that break a naive integer check (negative,
huge and bool values, whole and fractional floats, NaN, inf and numpy
integers) next to small valid ones, and with hostile multipliers, points,
matrix entries and agent states. Whatever the input, the call must return
or raise one of pdnet's error classes. The examples are derandomized, so
a failure replays.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from pdnet import engine as en
from pdnet import graphs as gr
from pdnet import lagrangian as lg
from pdnet import metrics as me
from pdnet import problems as pr

from conftest import constraint_grads

PDNET_ERRORS = (pr.ProblemError, pr.ReferenceError, gr.GraphError,
                gr.WeightMatrixError, en.EngineError, en.DivergenceError,
                me.MetricError)

#: not integers, or integers no count, seed or index may take
HOSTILE = [-1, -5, -2 ** 63, True, False, np.bool_(True), 1.0, 2.0, 4.0, 2.5,
           -0.5, math.nan, math.inf, -math.inf, 1e300, np.float64(3.0),
           np.int64(-2), np.uint8(3)]

#: integers beyond MAX_ARRAY_ENTRIES: a size check rejects them, but as a
#: loop length they are a legitimate (if endless) request
HUGE = [10 ** 20, 2 ** 63, 2 ** 64 - 1, 2 ** 64, np.uint64(2 ** 64 - 1)]

#: hostile floats for multipliers, points, matrix entries, eta and scales
FLOATS = [0.0, 0.25, 0.5, 1.0, -0.5, -1.0, math.nan, math.inf, -math.inf,
          1e300, -1e300, 5e-324]

EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def counts(huge: bool = True):
    """Small integers, Python and numpy, and the hostile values; ``huge``
    adds the integers too large for any array."""
    small = st.integers(-3, 12)
    return (small | small.map(np.int64)
            | st.sampled_from(HOSTILE + (HUGE if huge else [])))


def floats():
    return st.sampled_from(FLOATS)


def _returns_or_raises_pdnet_error(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except PDNET_ERRORS:
        pass


# -- tiny fixtures, built once -------------------------------------------------

PROBLEM = pr.build_logistic_problem(pr.generate_dataset(4, 2, seed=1), 0.5, 0.5)
WEIGHTS = gr.lazy_metropolis(gr.generate_barbell(4))


# -- generators and graphs -----------------------------------------------------

@EXAMPLES
@given(counts(), counts(), counts())
def test_generate_dataset(n, d, seed):
    _returns_or_raises_pdnet_error(pr.generate_dataset, n, d, seed=seed)


@EXAMPLES
@given(st.sampled_from(["ws", "er", "lattice8", "barbell"]),
       counts(), counts(), counts())
def test_graph_generators(family, a, b, seed):
    make = {"ws": lambda: gr.generate_watts_strogatz(a, b, 0.5, seed=seed),
            "er": lambda: gr.generate_erdos_renyi(a, 0.5, seed=seed),
            "lattice8": lambda: gr.generate_lattice8(a, b),
            "barbell": lambda: gr.generate_barbell(a, b)}[family]
    _returns_or_raises_pdnet_error(make)


ENDPOINTS = st.integers(-1, 4) | st.sampled_from(
    [1.0, 2.0, 1.5, -0.5, math.nan, math.inf, -math.inf, 1e300, 2 ** 63,
     10 ** 20, np.int64(2), np.float64(1.0)])


@EXAMPLES
@given(counts(), st.lists(st.tuples(ENDPOINTS, ENDPOINTS), max_size=6))
def test_graph_topology(n, edges):
    _returns_or_raises_pdnet_error(gr.GraphTopology.from_edges, n, edges)


@st.composite
def matrices(draw):
    size = draw(st.integers(0, 3))
    shape = draw(st.sampled_from([(size, size), (size, size + 1), (size,),
                                  ()]))
    if draw(st.booleans()) and shape == (size, size) and size:
        return np.full(shape, 1.0 / size)  # doubly stochastic
    values = draw(st.lists(floats(), min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    return np.array(values, dtype=float).reshape(shape)


@EXAMPLES
@given(matrices())
def test_consensus_matrix_from_entries(entries):
    _returns_or_raises_pdnet_error(gr.ConsensusMatrix.from_entries, entries)


# -- the weight builders --------------------------------------------------------

def accepted(call):
    """``call()``, or None when it raises WeightMatrixError or GraphError."""
    try:
        return call()
    except (gr.WeightMatrixError, gr.GraphError):
        return None


def assert_scipy_csr(w, data, indices, indptr):
    """``w``'s CSR arrays are bit-equal, dtypes included, to those of the
    scipy CSR over (data, indices, indptr) after ``eliminate_zeros``."""
    ref = sparse.csr_array((data, indices, indptr), shape=(w.n, w.n), copy=True)
    ref.eliminate_zeros()
    assert w.nnz == ref.nnz
    for ours, theirs in ((w.indptr, ref.indptr), (w.indices, ref.indices),
                         (w.data, ref.data)):
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
        assert not ours.flags.writeable


def assert_sigma2_of(w, dense):
    """sigma2 has the bits of the dense solve of the same entries."""
    if w.n == 1:
        assert (w.sigma2, w.sigma2_method) == (0.0, "eigvalsh")
    elif w.sigma2_method == "eigvalsh":
        assert w.sigma2 == np.sort(np.abs(np.linalg.eigvalsh(dense)))[-2]
    else:
        assert w.sigma2_method == "svd"
        assert w.sigma2 == np.linalg.svd(dense, compute_uv=False)[1]


def graph_edges(n):
    """Edges on n nodes: a path, a star, a complete graph or none, plus a
    few more pairs, any of which may be a self-loop or out of range."""
    base = st.sampled_from([[(i, i + 1) for i in range(n - 1)],
                            [(0, i) for i in range(1, n)],
                            [(i, j) for i in range(n) for j in range(i + 1, n)],
                            []])
    extra = st.lists(st.tuples(st.integers(0, n), st.integers(0, n)),
                     max_size=3)
    return st.builds(lambda b, e: b + e, base, extra | st.just([]))


@st.composite
def weight_inputs(draw):
    """A small matrix and maybe the (n, edges) of a graph. The matrix is
    doubly stochastic (uniform, a permutation, the mean of two
    permutations, lazy Metropolis on a path), then maybe broken by hostile
    entries, an all-zero row or a wrong shape; the graph may miss entries
    or have the wrong size."""
    n = draw(st.integers(1, 4))
    perm = lambda: np.eye(n)[list(draw(st.permutations(range(n))))]
    kind = draw(st.sampled_from(["uniform", "permutation", "mix", "path"]))
    if kind == "uniform":
        m = np.full((n, n), 1.0 / n)
    elif kind == "permutation":
        m = perm()
    elif kind == "mix":
        m = 0.5 * (perm() + perm())  # asymmetric for most draws
    else:
        path = gr.GraphTopology.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        m = gr.lazy_metropolis(path).csr.toarray()
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i, j] = draw(st.sampled_from(FLOATS + [-0.0, m[i, j] - 1e-13]))
    if draw(st.integers(0, 5)) == 0:
        m[draw(st.integers(0, n - 1))] = 0.0
    entries = draw(st.sampled_from([m] * 3 + [m[:, :-1], m[:0, :0], m.ravel()]))
    size = draw(st.sampled_from([n, n, n + 1]))
    graph = draw(st.none() | graph_edges(size).map(lambda e: (size, e)))
    return entries, graph


@EXAMPLES
@given(weight_inputs())
@example((np.eye(3)[[1, 2, 0]], None))  # asymmetric: sigma2 by svd
@example((0.5 * (np.eye(4) + np.eye(4)[[1, 2, 3, 0]]),
          (4, [(0, 1), (1, 2), (2, 3), (0, 3)])))  # on a 4-cycle
def test_weight_matrix_constructor(inputs):
    # from the dense entries: scipy's arrays, or a raise
    entries, graph = inputs
    g = accepted(lambda: graph and gr.GraphTopology.from_edges(*graph))
    if graph and g is None:
        return
    w = accepted(lambda: gr.ConsensusMatrix.from_entries(entries, graph=g))
    if w is None:
        return
    n = w.n
    assert_scipy_csr(w, entries.ravel(),
                     np.tile(np.arange(n, dtype=np.int32), n),
                     np.arange(0, n * n + 1, n, dtype=np.int32))
    assert_sigma2_of(w, entries)


@EXAMPLES
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n),
                                                     graph_edges(n))),
       st.sampled_from([gr.lazy_metropolis, gr.laplacian_weights]))
def test_weight_builders(graph, build):
    n, edges = graph
    g = accepted(lambda: gr.GraphTopology.from_edges(n, edges))
    w = g and accepted(lambda: build(g))
    if w is None:
        return
    dense = np.zeros((n, n))
    dense[np.repeat(np.arange(n), np.diff(w.indptr)), w.indices] = w.data
    ref = sparse.csr_array(dense)
    assert_scipy_csr(w, ref.data, ref.indices, ref.indptr)
    # stored: the diagonal and both entries of each edge, nothing else
    pattern = np.eye(n, dtype=bool)
    pattern[tuple(g.edge_array.T)] = pattern[tuple(g.edge_array.T[::-1])] = True
    assert np.array_equal(dense != 0, pattern)
    assert_sigma2_of(w, dense)


# -- configs, the reference solve and the theory checks -------------------------

@st.composite
def run_configs(draw):
    return en.RunConfig(
        variant=draw(st.sampled_from([*en.VARIANTS, "bogus"])),
        # the horizon is a loop length: no huge values
        iterations=draw(counts(huge=False)),
        eta=draw(floats() | st.sampled_from([True, np.int64(2)])),
        step_scale=draw(st.none() | floats()),
        seed=draw(counts()),
        init=draw(st.sampled_from([en.INIT_ORIGIN, en.INIT_RANDOM_FEASIBLE])),
        record_every=draw(counts()))


@EXAMPLES
@given(run_configs())
@example(en.RunConfig(variant=en.CENTRALIZED_UNREGULARIZED, iterations=3,
                      step_scale=math.inf))  # diverged at t = 0 instead
def test_run_and_step_configs(cfg):
    _returns_or_raises_pdnet_error(en.run, PROBLEM, WEIGHTS, cfg)
    baseline = cfg.variant == en.CENTRALIZED_UNREGULARIZED
    states = en.initial_states(PROBLEM, en.RunConfig(
        variant=en.CENTRALIZED_UNREGULARIZED if baseline else en.DETERMINISTIC))
    _returns_or_raises_pdnet_error(en.step, states, PROBLEM, WEIGHTS, 0, cfg)
    if cfg.step_scale is not None and not 0.0 < cfg.step_scale < math.inf:
        # every variant, the baseline too, rejects the config up front
        for call in (lambda: en.run(PROBLEM, WEIGHTS, cfg),
                     lambda: en.step(states, PROBLEM, WEIGHTS, 0, cfg)):
            with pytest.raises(en.EngineError):
                call()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(counts())
def test_reference_optimum(iterations):
    # a huge count is fine here: the solve stops once it stops improving
    _returns_or_raises_pdnet_error(pr.reference_optimum, PROBLEM, iterations)


DATA = pr.generate_dataset(4, 2, seed=1)
#: box margins, more than half of them valid: 0.1, the hostile floats,
#: text, None, a list, arrays, other numeric types and an int too large
#: for a float
MARGINS = [0.1] * 24 + FLOATS + [
    "0.1", None, [0.1], np.array(0.1), np.array([0.1, 0.1]), True, np.int64(2),
    np.float32(0.5), 10 ** 400]


@st.composite
def loss_inputs(draw):
    """Features and labels of 4 agents and box margins: ``DATA`` rescaled,
    maybe with one entry set to a hostile float, maybe reshaped, cut short,
    cast to integers, text or complex, or given as a list; margins from
    ``MARGINS``."""
    arrays = [draw(st.sampled_from(scales)) * base for base, scales in (
        (DATA.features, [1.0, 1.0, 3.0, 1e-300, 1e150, 1e155]),
        (DATA.labels, [1.0, 1.0, 0.5, 0.0, 1e150, 1e300]))]
    if draw(st.integers(0, 3)) == 0:
        a = arrays[draw(st.integers(0, 1))]
        a.flat[draw(st.integers(0, a.size - 1))] = draw(floats())
    f, b = arrays
    with np.errstate(invalid="ignore"):  # NaN and inf cast to integers
        f = draw(st.sampled_from([f] * 12 + [
            f[:, 0], f[:, :, None], f[:, :0], f[:0], f[:3], f.astype(np.int64),
            f.astype(str), f + 0j, f.tolist()]))
        b = draw(st.sampled_from([b] * 8 + [
            b[:3], b[:, None], b.astype(str), b.astype(np.int64), b.tolist()]))
    margin = st.sampled_from(MARGINS)
    return pr.SyntheticDataset(features=f, labels=b), draw(margin), draw(margin)


@EXAMPLES
@given(loss_inputs(), st.sampled_from([pr.build_logistic_problem,
                                       pr.build_hinge_problem]))
@example((pr.SyntheticDataset(np.full((4, 2), math.nan), DATA.labels), 0.1, 0.1),
         pr.build_logistic_problem)  # f* was NaN, and the run aborted
def test_loss_problem_builders(inputs, build):
    # an accepted problem has a finite reference and runs without aborting
    data, l, u = inputs
    try:
        p = build(data, l, u)
    except pr.ProblemError:
        return
    try:
        ref = pr.reference_optimum(p, 50)
    except pr.ReferenceError:
        ref = None
    assert ref is None or math.isfinite(ref.f_star)
    cfg = en.RunConfig(iterations=3, record_every=1)
    assert en.run(p, WEIGHTS, cfg, ref).aborted is None


@EXAMPLES
@given(counts(huge=False), counts())
def test_check_tau_inequality(tau, t):
    # tau - 1 terms are summed, so tau draws no huge values
    _returns_or_raises_pdnet_error(me.check_tau_inequality, tau, t)


# -- the theory constants, the product-sum check and the rate fit -------------

#: hostile sigma2 values next to valid ones in [0, 1)
SIGMAS = FLOATS + [0.9, 1.0 - 1e-16, True, np.float64(0.3)]


@EXAMPLES
@given(st.sampled_from(SIGMAS), floats() | st.sampled_from([2, np.int64(3)]),
       counts())
def test_theory_constants(sigma2, eta, horizon):
    for bound in (me.thm2_constant, me.rate_bound):
        try:
            value = bound(PROBLEM, sigma2, eta, horizon)
        except PDNET_ERRORS:
            continue
        assert 0.0 < value < math.inf


@EXAMPLES
@given(st.lists(floats(), max_size=4) | st.lists(floats(), max_size=4).map(
    np.array), floats() | st.sampled_from([2, np.int64(3)]))
def test_check_product_sum_inequality(alphas, eta):
    try:
        result = me.check_product_sum_inequality(alphas, eta)
    except PDNET_ERRORS:
        return
    # an answer only where eta and every a(t) eta are in range
    assert result in (True, False)
    assert lg.ETA_RANGE[0] <= eta <= lg.ETA_RANGE[1]
    assert all(0.0 <= a * eta <= 1.0 + 1e-15 for a in alphas)


def _records(values, start: int = 1):
    """One IterationRecord per value, at t = start, start + 1, ..."""
    return [me.IterationRecord(t, *[v] * 10) for t, v in
            enumerate(values, start)]


WINDOWS = [(1, 100), (0, 5), (5, 1), (math.nan, 50), (-math.inf, math.inf),
           ("a", 5), (1,), (1, 2, 3), None, "ab", 7]


@EXAMPLES
@given(st.sampled_from([None, 3, "records", [1, 2]])
       | st.lists(floats(), max_size=14).map(_records)
       | st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=10,
                  max_size=14).map(_records),
       st.sampled_from(["eps", "violation_sq", "eps_G", "t"]),
       st.sampled_from(WINDOWS))
def test_rate_fit(records, column, window):
    with np.errstate(all="ignore"):  # a fit of hostile values may warn
        _returns_or_raises_pdnet_error(me.rate_fit, records, column, window)


@pytest.mark.parametrize("call", [
    lambda: me.check_product_sum_inequality([0.5, 0.5], math.nan),
    lambda: me.check_product_sum_inequality([math.nan], 1.0),
    lambda: me.check_product_sum_inequality([0.0], math.inf),
    lambda: me.thm2_constant(PROBLEM, 0.5, 0.0, 10),
    lambda: me.thm2_constant(PROBLEM, math.nan, 1.0, 10),
    lambda: me.thm2_constant(PROBLEM, 0.5, math.nan, 10),
    lambda: me.rate_bound(PROBLEM, math.nan, 1.0, 10),
    lambda: me.rate_bound(PROBLEM, 0.5, math.nan, 10),
    lambda: me.thm2_constant(PROBLEM, -1.0, 1.0, 10),
    lambda: me.thm2_constant(PROBLEM, 0.5, 1.0, 2.5),
    lambda: me.rate_bound(PROBLEM, 0.5, 1.0, 2.5),
    lambda: me.rate_fit(_records([0.5] * 12), "eps", ("a", 5)),
    lambda: me.rate_fit(None, "eps", (1, 12)),
    lambda: me.lambda_norm_bound(PROBLEM, 0.0),
], ids=["ps-eta-nan", "ps-alpha-nan", "ps-eta-inf", "thm2-eta-0",
        "thm2-sigma2-nan", "thm2-eta-nan", "rate-sigma2-nan", "rate-eta-nan",
        "thm2-sigma2-negative", "thm2-horizon-2.5", "rate-horizon-2.5",
        "fit-window-text", "fit-none", "lambda-eta-0"])
def test_theory_helpers_reject_what_they_cannot_evaluate(call):
    with pytest.raises(me.MetricError):
        call()


# -- the single-agent functions ------------------------------------------------

def vectors(length: int):
    return st.lists(floats(), min_size=length, max_size=length).map(np.array)


@st.composite
def points(draw):
    d = PROBLEM.dim
    shape = draw(st.sampled_from([(d,), (1, d), (d + 1,), ()]))
    return np.full(shape, draw(st.sampled_from([0.1, -0.3, math.nan])))


@EXAMPLES
@given(counts(), counts(), points(),
       vectors(PROBLEM.n_constraints) | vectors(1) | vectors(0), floats())
def test_single_agent_functions(agent, k, x, lam, eta):
    p = PROBLEM
    _returns_or_raises_pdnet_error(lg.lagrangian_value, p, agent, x, lam, eta)
    _returns_or_raises_pdnet_error(lg.grad_x, p, agent, x, lam)
    _returns_or_raises_pdnet_error(lg.grad_lambda, p, x, lam, eta)
    _returns_or_raises_pdnet_error(lg.sampling_distribution, lam)
    _returns_or_raises_pdnet_error(lg.stochastic_grad_x, p, agent, x, lam, k)


# -- the step's projections, stepsize and t -----------------------------------

@st.composite
def float_rows(draw):
    """Arrays of hostile floats: 0-d, a vector, rows, and empty rows."""
    shape = draw(st.sampled_from([(), (3,), (1, 2), (4, 5), (0, 3), (3, 0)]))
    values = draw(st.lists(floats(), min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    return np.array(values, dtype=float).reshape(shape)


RADII = FLOATS + [True, np.int64(2), 2, np.float64(0.3)]


def _norm(row) -> float:
    """The Euclidean norm of ``row``, without overflow or underflow."""
    return math.hypot(*row.tolist())


@EXAMPLES
@given(float_rows(), st.sampled_from(RADII))
def test_project_ball(x, radius):
    # finite input may not overflow, divide by zero or make a NaN; finite
    # rows come back inside the ball, and on its sphere if they were outside.
    # A column slice or a Fortran-ordered copy of x gives the same bits, and
    # every result is a new C-contiguous array
    errors = "raise" if np.all(np.isfinite(x)) else "ignore"
    try:
        with np.errstate(over=errors, invalid=errors, divide=errors):
            out = en.project_ball(x, radius)
    except PDNET_ERRORS:
        return
    for view in (x, np.repeat(x, 2, axis=-1)[..., ::2], np.asfortranarray(x)):
        with np.errstate(over=errors, invalid=errors, divide=errors):
            got = en.project_ball(view, radius)
        assert got.tobytes() == out.tobytes()
        assert got.flags.c_contiguous and not np.shares_memory(got, view)
    rows, out = np.atleast_2d(x), np.atleast_2d(out)
    # a result in the subnormal range rounds in steps of the least subnormal
    slack = math.sqrt(x.shape[-1]) * 5e-324
    for row, got in zip(rows, out):
        if not np.all(np.isfinite(row)):
            continue
        assert _norm(got) <= radius * (1.0 + 1e-12) + slack
        if _norm(row) > radius:
            assert abs(_norm(got) - radius) <= radius * 1e-12 + slack


@EXAMPLES
@given(st.integers(0, 6), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1e-300, 1e-3, 0.2, 0.45, 1.0, 3.0, 1e3]),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_project_ball_matches_the_norm_formula_on_valid_rows(n, d, seed, scale,
                                                             radius):
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, d)) * scale
    want = x * (radius / np.maximum(
        radius, np.linalg.norm(x, axis=-1, keepdims=True)))
    for rows, expected in [(x, want)] + ([(x[0], want[0])] if n else []):
        got = en.project_ball(rows, radius)
        assert got.tobytes() == expected.tobytes()
        assert not np.shares_memory(got, rows)


@EXAMPLES
@given(float_rows())
def test_project_orthant(v):
    out = en.project_orthant(v)
    assert out.shape == v.shape
    finite = np.isfinite(v)
    assert np.array_equal(out[finite], np.where(v > 0.0, v, 0.0)[finite])
    assert np.all(np.isnan(out[np.isnan(v)]))


@EXAMPLES
@given(counts(), st.sampled_from([None, *FLOATS]))
def test_stepsize(t, scale):
    cfg = en.RunConfig(step_scale=scale)
    try:
        alpha = en.stepsize(t, cfg)
    except PDNET_ERRORS:
        return
    assert alpha == scale / math.sqrt(int(t) + 1.0) or math.isnan(alpha)


@EXAMPLES
@given(st.sampled_from(en.VARIANTS), counts())
def test_step_t(variant, t):
    baseline = variant == en.CENTRALIZED_UNREGULARIZED
    cfg = en.RunConfig(variant=variant, seed=3, step_scale=0.5 if baseline
                       else None)
    states = en.initial_states(PROBLEM, cfg)
    states.lam[:] = 0.5
    _returns_or_raises_pdnet_error(en.step, states, PROBLEM, WEIGHTS, t, cfg)


# -- the record-layer metrics ------------------------------------------------

#: an f* to normalize epsilon_G by
REFERENCE = pr.ReferenceSolution(f_star=0.6, x_star=np.zeros(PROBLEM.dim),
                                 method="fixed", residual=0.0)

#: the same problem as bare oracles: its objective bracket is (-inf, inf)
ORACLE_PROBLEM = pr.ProblemSpec.from_oracles(
    [lambda x, i=i: PROBLEM.objective(i, x) for i in range(PROBLEM.n_agents)],
    [lambda x, k=k: (float(PROBLEM.constraint_values(x)[k]),
                     constraint_grads(PROBLEM, x)[k])
     for k in range(PROBLEM.n_constraints)],
    dim=PROBLEM.dim, lipschitz=PROBLEM.lipschitz, radius=PROBLEM.radius)

WEIGHT_SUMS = [1.0, 0.5, 5e-324, 1e300, math.inf, 0.0, -0.0, -1.0, math.nan]


def _rows_of(draw, shape):
    """Valid-looking points with some entries made hostile."""
    rows = np.random.default_rng(draw(st.integers(0, 3))).uniform(
        -0.5, 0.5, size=shape)
    if rows.size and draw(st.booleans()):
        rows.flat[draw(st.integers(0, rows.size - 1))] = draw(floats())
    return rows


@st.composite
def record_states(draw):
    """AgentStates with hostile rows, weight sums and shapes: one row per
    agent, the baseline's one row, too many or no rows, a wrong width, a
    vector or a stack in place of rows."""
    n, d, m = PROBLEM.n_agents, PROBLEM.dim, PROBLEM.n_constraints
    shapes = st.sampled_from([(n, d), (1, d), (n + 1, d), (0, d), (n, d + 1),
                              (n, 0), (d,), (1, n, d)])
    x, avg = _rows_of(draw, draw(shapes)), _rows_of(draw, draw(shapes))
    lam = np.zeros((len(x) if x.ndim else 0, m))
    return en.AgentStates(x=x, lam=lam, avg_numerator=avg,
                          weight_sum=draw(st.sampled_from(WEIGHT_SUMS)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([PROBLEM, ORACLE_PROBLEM]), record_states(),
       record_states())
def test_record_metrics(p, states, initial):
    with np.errstate(all="ignore"):  # hostile rows overflow and make NaNs
        _returns_or_raises_pdnet_error(me.epsilon_G, p, REFERENCE, states,
                                       initial)
        _returns_or_raises_pdnet_error(me.delta_G, p, states, initial)
        _returns_or_raises_pdnet_error(me.violation_functional, p, states)
    if not states.weight_sum > 0.0:  # NaN included: no averages
        with pytest.raises(me.MetricError, match="weight sum"):
            me.violation_functional(p, states)
