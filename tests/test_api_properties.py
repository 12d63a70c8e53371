"""Hostile arguments never escape the library as bare Python or numpy errors.

Every count, seed and index the library takes goes through
``problems.checked_int``. Each test here drives one entry point with
counts, seeds and indices that break a naive integer check (negative,
huge and bool values, whole and fractional floats, NaN, inf and numpy
integers) next to small valid ones, and with hostile multipliers, points
and matrix entries. Whatever the input, the call must return or raise one
of pdnet's error classes. The examples are derandomized, so a failure
replays.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from pdnet import engine as en
from pdnet import graphs as gr
from pdnet import lagrangian as lg
from pdnet import metrics as me
from pdnet import problems as pr

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
def test_run_and_step_configs(cfg):
    _returns_or_raises_pdnet_error(en.run, PROBLEM, WEIGHTS, cfg)
    baseline = cfg.variant == en.CENTRALIZED_UNREGULARIZED
    states = en.initial_states(PROBLEM, en.RunConfig(
        variant=en.CENTRALIZED_UNREGULARIZED if baseline else en.DETERMINISTIC))
    _returns_or_raises_pdnet_error(en.step, states, PROBLEM, WEIGHTS, 0, cfg)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(counts())
def test_reference_optimum(iterations):
    # a huge count is fine here: the solve stops once it stops improving
    _returns_or_raises_pdnet_error(pr.reference_optimum, PROBLEM, iterations)


@EXAMPLES
@given(counts(huge=False), counts())
def test_check_tau_inequality(tau, t):
    # tau - 1 terms are summed, so tau draws no huge values
    _returns_or_raises_pdnet_error(me.check_tau_inequality, tau, t)


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


@EXAMPLES
@given(float_rows(), st.sampled_from(RADII))
def test_project_ball(x, radius):
    with np.errstate(all="ignore"):  # 1e300 rows overflow their norms
        _returns_or_raises_pdnet_error(en.project_ball, x, radius)


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
