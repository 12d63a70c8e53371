"""Engine: projections, steps, runs, averaging, determinism, guards."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdnet import engine as en
from pdnet import metrics, verify
from pdnet.graphs import (
    ConsensusMatrix,
    GraphTopology,
    generate_barbell,
    generate_erdos_renyi,
    generate_lattice8,
    generate_watts_strogatz,
    laplacian_weights,
    lazy_metropolis,
)
from pdnet.problems import build_logistic_problem, generate_dataset

from conftest import make_custom_problem, toy_problem


def identity_matrix(n=1):
    return ConsensusMatrix.from_entries(np.eye(n))


def complete_matrix(n):
    cliques = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return lazy_metropolis(GraphTopology.from_edges(n, cliques))


def trajectory(p, w, cfg):
    """x(0), ..., x(T) of the run ``en.run(p, w, cfg)``, by ``en.step``."""
    cfg = en.resolve_config(cfg, p)
    states = en.initial_states(p, cfg)
    xs = [states.x]
    for t in range(cfg.iterations):
        states = en.step(states, p, w, t, cfg)
        xs.append(states.x)
    return xs


# -- projections ---------------------------------------------------------------

def test_project_ball_scales_outside():
    assert_allclose(en.project_ball(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])


def test_project_ball_identity_inside():
    x = np.array([0.1, 0.2])
    assert np.array_equal(en.project_ball(x, 1.0), x)
    z = np.zeros(3)
    assert np.array_equal(en.project_ball(z, 2.0), z)


def _norm_formula_projection(x, radius):
    """The ball projection as first written, through np.linalg.norm."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x * (radius / np.maximum(radius, norms))


def test_project_ball_rejects_a_zero_dimensional_array():
    # it has no last axis to take the dimension from: an IndexError before
    with pytest.raises(en.EngineError, match="0-d array"):
        en.project_ball(np.float64(2.0), 1.0)


@pytest.mark.parametrize("scale", [1e-300, 0.1, 0.2236, 0.2237, 0.5, 1.0, 3.0])
def test_project_ball_matches_the_norm_formula(scale):
    # rows of every size about the threshold sqrt(d) max|x_ij| = radius / 2
    # where the projection stops computing norms
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, size=(300, 5)) * scale
    x[0] = 0.0
    x[1] = -0.0
    for radius in (0.5, 1.0):
        for rows in (x, x[7], np.hstack((x, x))[:, 2:7]):
            got = en.project_ball(rows, radius)
            want = _norm_formula_projection(rows, radius)
            assert got.tobytes() == want.tobytes()
            assert got is not rows and not np.shares_memory(got, rows)


@pytest.mark.parametrize("norm", [0.999e6, 1.001e6])
def test_dual_guard_on_rows_near_the_guard(norm):
    lam = np.zeros((6, 4))
    lam[:, 0] = 1.0
    lam[2] = lam[4] = norm / 2.0  # the norm is 2 * entry
    if norm < en.LAMBDA_GUARD:
        en._check_dual_guard(lam, 5)
    else:
        with pytest.raises(en.DivergenceError,
                           match=r"dual norm 1\.001e\+06 .* t=5: lam of agent 2"):
            en._check_dual_guard(lam, 5)


def test_project_orthant():
    assert_allclose(en.project_orthant(np.array([-1.0, 2.0, 0.0])), [0, 2, 0])
    assert_allclose(en.project_orthant(np.array([-3.0, -1.0])), [0, 0])
    x = np.array([0.5, 0.0, 4.0])
    assert np.array_equal(en.project_orthant(x), x)


# -- stepsize and config --------------------------------------------------------

def test_stepsize_schedule():
    cfg = en.RunConfig(step_scale=1.0)
    assert en.stepsize(0, cfg) == 1.0
    assert en.stepsize(3, cfg) == 0.5
    cfg_r = en.RunConfig(step_scale=0.7)
    assert en.stepsize(99, cfg_r) == pytest.approx(0.07)


@pytest.mark.parametrize("variant", en.VARIANTS)
def test_step_checks_its_stepsize(variant, paper_logistic, ws_matrix):
    # step resolves its config as run does: a raw config steps bit for bit
    # as the resolved one, the baseline's with eta = 0 where lam > 0, and
    # a negative t is an EngineError, not an arithmetic error
    baseline = variant == en.CENTRALIZED_UNREGULARIZED
    raw = en.RunConfig(variant=variant, step_scale=0.5 if baseline else None,
                       seed=3)
    resolved = en.resolve_config(raw, paper_logistic)
    states = en.initial_states(paper_logistic, resolved)
    states.lam[:] = 1.0
    out = en.step(states, paper_logistic, ws_matrix, 0, raw)
    expected = en.step(states, paper_logistic, ws_matrix, 0, resolved)
    for name in ("x", "lam", "avg_numerator", "weight_sum"):
        assert np.array_equal(getattr(out, name), getattr(expected, name))
    if baseline:
        # lam + alpha(0) g(0) with g(0) = -0.1, undamped by eta
        assert_allclose(out.lam, 0.95, rtol=1e-15)
    with pytest.raises(en.EngineError, match=r"t -1 is not an integer"):
        en.step(states, paper_logistic, ws_matrix, -1, resolved)


@pytest.mark.parametrize("t", [2.5, 2.0, True, 2 ** 64, math.nan, math.inf])
def test_step_and_stepsize_take_only_an_integer_t(t, paper_logistic,
                                                  ws_matrix):
    # a stochastic step at t = 2.5 would step with alpha(2.5) but sample
    # the stream keyed by t = 2; t keys a 64-bit Philox word
    cfg = en.resolve_config(en.RunConfig(variant="stochastic", seed=3),
                            paper_logistic)
    states = en.initial_states(paper_logistic, cfg)
    with pytest.raises(en.EngineError, match="is not an integer"):
        en.step(states, paper_logistic, ws_matrix, t, cfg)
    with pytest.raises(en.EngineError, match="is not an integer"):
        en.stepsize(t, cfg)
    assert en.stepsize(2 ** 64 - 1, cfg) > 0.0


@pytest.mark.parametrize("cfg", [
    en.RunConfig(eta=1.0, step_scale=1.0),
    en.RunConfig(variant="stochastic", eta=10.0, step_scale=1.0),
    en.RunConfig(eta=0.0),
    en.RunConfig(variant="nope"),
    en.RunConfig(seed=2 ** 64)])
def test_step_rejects_what_run_rejects(cfg, paper_logistic, ws_matrix):
    # eta * alpha(0) > 1/2 and the other bad configs fail alike in both
    states = en.initial_states(paper_logistic, en.RunConfig())
    with pytest.raises(en.EngineError) as from_run:
        en.run(paper_logistic, ws_matrix, cfg)
    with pytest.raises(en.EngineError) as from_step:
        en.step(states, paper_logistic, ws_matrix, 0, cfg)
    assert str(from_step.value) == str(from_run.value)


def test_resolve_config_caps_step_scale(paper_logistic):
    resolved = en.resolve_config(en.RunConfig(eta=1.0), paper_logistic)
    assert resolved.step_scale == 0.5
    resolved = en.resolve_config(en.RunConfig(eta=0.25), paper_logistic)
    assert resolved.step_scale == 1.0  # radius bound is the binding cap


def test_resolve_config_rejects_violating_scale(paper_logistic):
    with pytest.raises(en.EngineError):
        en.resolve_config(en.RunConfig(eta=1.0, step_scale=1.0), paper_logistic)
    with pytest.raises(en.EngineError):
        en.resolve_config(en.RunConfig(eta=0.0), paper_logistic)
    with pytest.raises(en.EngineError):
        en.resolve_config(en.RunConfig(variant="nope"), paper_logistic)


def test_stochastic_variant_needs_a_constraint():
    f = lambda x: (float(x @ x), 2 * x)
    p = make_custom_problem([f] * 4, [], lipschitz=2.0, radius=1.0, dim=2)
    ring = lazy_metropolis(GraphTopology.from_edges(
        4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    for variant in ("deterministic", "centralized_unregularized"):
        cfg = en.RunConfig(variant=variant, eta=1.0, iterations=5)
        assert en.run(p, ring, cfg).aborted is None
    with pytest.raises(en.EngineError, match="needs a constraint to sample"):
        en.run(p, ring, en.RunConfig(variant="stochastic", eta=1.0))


def test_resolve_config_baseline_forces_eta(paper_logistic):
    cfg = en.RunConfig(variant=en.CENTRALIZED_UNREGULARIZED, eta=3.0)
    resolved = en.resolve_config(cfg, paper_logistic)
    assert resolved.eta == 0.0
    assert resolved.step_scale == paper_logistic.radius


# -- single steps -----------------------------------------------------------------

def test_hand_stepped_single_agent():
    # one agent, f(x) = x, g(x) = x - 1/2, eta = 1/2, alpha(0) = 1:
    # y = -1 projects to the ball boundary, dual direction clips to zero
    p = toy_problem()
    cfg = en.RunConfig(eta=0.5, step_scale=1.0)
    states = en.initial_states(p, cfg)
    out = en.step(states, p, identity_matrix(), 0, cfg)
    assert_allclose(out.x, [[-1.0]])
    assert_allclose(out.lam, [[0.0]])


def test_dual_stays_zero_when_feasible():
    f = lambda x: (float(np.sin(x[0])), np.array([np.cos(x[0]), 0.0]))
    g = lambda x: (float(x[0] - 10.0), np.array([1.0, 0.0]))
    p = make_custom_problem([f], [g], lipschitz=1.0, radius=1.0, dim=2)
    cfg = en.RunConfig(eta=1.0, iterations=50, record_every=5)
    trace = en.run(p, identity_matrix(), cfg)
    assert trace.final_states.lam.max() == 0.0
    assert all(r.max_lambda_norm == 0.0 for r in trace.records)


def test_identical_agents_stay_identical():
    f = lambda x: (float(x @ x), 2 * x)
    g = lambda x: (float(x[0] - 0.5), np.array([1.0, 0.0]))
    p = make_custom_problem([f] * 4, [g], lipschitz=2.0, radius=1.0, dim=2)
    cfg = en.RunConfig(eta=0.5, iterations=30)
    for snap in trajectory(p, complete_matrix(4), cfg):
        assert np.max(np.abs(snap - snap[0])) == 0.0


def test_single_constraint_stochastic_equals_deterministic():
    f = lambda x: (float(x[0] ** 2), np.array([2 * x[0]]))
    g = lambda x: (float(x[0] - 0.2), np.array([1.0]))
    p = make_custom_problem([f, f], [g], lipschitz=2.0, radius=1.0, dim=1)
    w = complete_matrix(2)
    det = en.run(p, w, en.RunConfig(variant="deterministic", eta=1.0,
                                    iterations=40, seed=3))
    sto = en.run(p, w, en.RunConfig(variant="stochastic", eta=1.0,
                                    iterations=40, seed=3))
    assert np.array_equal(det.final_states.x, sto.final_states.x)
    assert np.array_equal(det.final_states.lam, sto.final_states.lam)


def test_stochastic_update_seed_independent_while_dual_zero():
    # with lam = 0 the sampled index does not enter the primal direction
    f = lambda x: (float(x[0]), np.array([1.0, 0.0]))
    gs = [lambda x: (float(x[0] - 5.0), np.array([1.0, 0.0])),
          lambda x: (float(x[1] - 5.0), np.array([0.0, 1.0]))]
    p = make_custom_problem([f] * 3, gs, lipschitz=1.0, radius=1.0, dim=2)
    w = complete_matrix(3)
    a = en.run(p, w, en.RunConfig(variant="stochastic", eta=1.0,
                                  iterations=25, seed=1))
    b = en.run(p, w, en.RunConfig(variant="stochastic", eta=1.0,
                                  iterations=25, seed=999))
    assert np.array_equal(a.final_states.x, b.final_states.x)
    assert a.final_states.lam.max() == 0.0


def test_enumerated_stochastic_mean_matches_deterministic(monkeypatch,
                                                         paper_logistic):
    # the stochastic directions at each forced index k, weighted by the
    # sampling probabilities, average to the unsampled (horizon) directions
    from pdnet.lagrangian import sampling_distribution
    rng = np.random.default_rng(0)
    n = paper_logistic.n_agents
    states = en.AgentStates(x=rng.normal(size=(n, 5)) * 0.1,
                            lam=rng.random((n, 10)),
                            avg_numerator=np.zeros((n, 5)), weight_sum=0.0)
    cfg = en.RunConfig(variant="stochastic", eta=1.0)
    gx_det, glam_det = en._directions(paper_logistic, states, cfg)
    mean_gx = np.zeros_like(gx_det)
    for k in range(10):
        monkeypatch.setattr(en, "sample_constraint_indices",
                            lambda lam, uniforms, totals: np.full(n, k))
        stoch, glam = en._directions(paper_logistic, states, cfg, t=3)
        assert np.array_equal(glam, glam_det)
        probs = np.array([sampling_distribution(l)[k] for l in states.lam])
        mean_gx += probs[:, None] * stoch
    assert_allclose(mean_gx, gx_det, atol=1e-12)


@pytest.mark.parametrize("family", ["logistic", "hinge"])
@pytest.mark.parametrize("variant", ["deterministic", "stochastic"])
def test_single_agent_directions_are_rows_of_the_step(variant, family, request,
                                                      monkeypatch):
    # grad_x, stochastic_grad_x (at the engine's own sample) and grad_lambda
    # are row i of the engine's directions, bit for bit
    from pdnet import lagrangian as lg
    p = request.getfixturevalue(f"paper_{family}")
    rng = np.random.default_rng(5)
    n, m = p.n_agents, p.n_constraints
    x = rng.normal(size=(n, p.dim))
    x *= rng.random((n, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    lam = rng.random((n, m))
    lam[::7] = 0.0
    states = en.AgentStates(x=x, lam=lam, avg_numerator=np.zeros_like(x),
                            weight_sum=0.0)
    cfg = en.resolve_config(en.RunConfig(variant=variant, eta=0.7, seed=3), p)
    samples = []
    sample = en.sample_constraint_indices

    def recorded(lam_rows, uniforms, totals):
        samples.append(sample(lam_rows, uniforms, totals))
        return samples[-1]

    monkeypatch.setattr(en, "sample_constraint_indices", recorded)
    gx, glam = en._directions(p, states, cfg, t=4)
    assert len(samples) == (variant == "stochastic")
    for i in range(n):
        if samples:
            row = lg.stochastic_grad_x(p, i, x[i], lam[i], int(samples[0][i]))
        else:
            row = lg.grad_x(p, i, x[i], lam[i])
        assert row.tobytes() == gx[i].tobytes(), i
        assert (lg.grad_lambda(p, x[i], lam[i], cfg.eta).tobytes()
                == glam[i].tobytes()), i


# -- runs --------------------------------------------------------------------------

def test_running_average_matches_recomputation():
    data = generate_dataset(6, 3, seed=2)
    p = build_logistic_problem(data, 0.2, 0.2)
    w = complete_matrix(6)
    cfg = en.RunConfig(eta=1.0, iterations=37, record_every=7)
    trace = en.run(p, w, cfg)
    resolved = trace.config
    xs = np.stack(trajectory(p, w, cfg))  # (T+1, n, d)
    assert np.array_equal(xs[-1], trace.final_states.x)
    alphas = np.array([en.stepsize(s, resolved) for s in range(len(xs))])
    manual = np.einsum("s,snd->nd", alphas, xs) / alphas.sum()
    assert np.max(np.abs(manual - trace.final_states.averages())) < 1e-10


def test_zero_iteration_run(paper_logistic, ws_matrix):
    cfg = en.RunConfig(eta=1.0, iterations=0)
    trace = en.run(paper_logistic, ws_matrix, cfg)
    assert len(trace.records) == 1 and trace.records[0].t == 0
    assert trace.final_states.weight_sum == 0.0
    assert trace.final_states.averages() is None
    assert np.array_equal(trace.final_states.output_points(),
                          np.zeros((100, 5)))
    assert trace.records[0].eps is math.nan or math.isnan(trace.records[0].eps)


def test_initial_record_eps_is_one(paper_logistic, ws_matrix, paper_reference):
    cfg = en.RunConfig(eta=1.0, iterations=20, record_every=10)
    trace = en.run(paper_logistic, ws_matrix, cfg, reference=paper_reference)
    assert trace.records[0].t == 0
    assert trace.records[0].eps == 1.0
    assert trace.records[0].delta == 1.0


def test_iterates_respect_projections():
    data = generate_dataset(5, 3, seed=9)
    p = build_logistic_problem(data, 0.1, 0.1)
    w = complete_matrix(5)
    cfg = en.RunConfig(eta=1.0, iterations=60, record_every=6)
    trace = en.run(p, w, cfg)
    for snap in trajectory(p, w, cfg):
        assert np.all(np.linalg.norm(snap, axis=1) <= 1.0 + 1e-12)
    assert np.all(trace.final_states.lam >= 0.0)
    avg = trace.final_states.averages()
    assert np.all(np.linalg.norm(avg, axis=1) <= 1.0 + 1e-9)


def test_bit_identical_reruns(paper_logistic, ws_matrix, paper_reference):
    for variant in ("deterministic", "stochastic"):
        cfg = en.RunConfig(variant=variant, eta=1.0, iterations=150,
                           record_every=10, seed=5)
        a = en.run(paper_logistic, ws_matrix, cfg, reference=paper_reference)
        b = en.run(paper_logistic, ws_matrix, cfg, reference=paper_reference)
        assert a.to_csv_text() == b.to_csv_text()
        assert np.array_equal(a.final_states.x, b.final_states.x)


def test_divergence_guard_aborts():
    f = lambda x: (float(x[0]), np.array([1.0]))
    g = lambda x: (1e7, np.array([0.0]))
    p = make_custom_problem([f], [g], lipschitz=1.0, radius=1.0, dim=1)
    cfg = en.RunConfig(eta=1.0, iterations=100)
    trace = en.run(p, identity_matrix(), cfg)
    assert trace.aborted is not None and "guard" in trace.aborted
    assert trace.aborted.endswith("at t=0: lam of agent 0")


def test_non_finite_iterate_names_agent_and_component(monkeypatch,
                                                      paper_logistic, ws_matrix):
    original = en._directions

    def poisoned(p, states, cfg, t=None, stream=None):
        grad_x, grad_lam = original(p, states, cfg, t, stream)
        if np.any(states.x != 0.0):
            grad_lam = grad_lam.copy()
            grad_lam[37, 0] = np.nan
        return grad_x, grad_lam

    monkeypatch.setattr(en, "_directions", poisoned)
    trace = en.run(paper_logistic, ws_matrix,
                   en.RunConfig(eta=1.0, iterations=20, record_every=5))
    assert trace.aborted == "non-finite lam at t=1, agent 37"


MIX_GRAPHS = {
    "ws": lambda: generate_watts_strogatz(100, 20, 0.02, seed=7),
    "barbell": lambda: generate_barbell(100, 1),
    "erdos_renyi": lambda: generate_erdos_renyi(100, 0.06, seed=7),
    "lattice": lambda: generate_lattice8(10, 10),
}


@pytest.mark.parametrize("scheme", [lazy_metropolis, laplacian_weights])
@pytest.mark.parametrize("which", sorted(MIX_GRAPHS))
def test_csr_mix_matches_dense_einsum(which, scheme):
    # _mix calls the kernel that ``csr @ z`` ends in, so it gives that
    # product's bits, -0.0 included; a dense einsum is the reference for both
    w = scheme(MIX_GRAPHS[which]())
    rng = np.random.default_rng(11)
    for width in (1, 5, 15):
        for scale in (1e-3, 1.0, 1e3):
            z = rng.normal(size=(w.n, width)) * scale
            mixed = en._mix(w.csr, z)
            assert mixed.tobytes() == (w.csr @ z).tobytes()
            # at width 1 einsum reduces over j in its own order
            assert width == 1 or np.array_equal(
                mixed, np.einsum("ij,jd->id", w.entries, z))
        z[rng.random(z.shape) < 0.5] = -0.0
        z[::3] = -0.0
        assert en._mix(w.csr, z).tobytes() == (w.csr @ z).tobytes()
        wide = rng.normal(size=(w.n, 2 * width + 1))
        wide[::4] = -0.0
        view = wide[:, 1::2]
        assert not view.flags.c_contiguous
        assert en._mix(w.csr, view).tobytes() == (w.csr @ view).tobytes()


def test_baseline_step_adds_zero_in_place_of_the_identity_mix(
        paper_logistic):
    # the 1x1 identity kernel computes 0.0 + 1.0 z: that is z + 0.0, which
    # turns -0.0 into +0.0
    identity = en._IDENTITY_1X1.csr
    for z in (np.array([[0.0, -0.0, 1.5, -2.0, 5e-324, -5e-324, 1e308,
                         -1e308, 2.2e-308]]), np.full((1, 15), -0.0)):
        assert (z + 0.0).tobytes() == (identity @ z).tobytes()
        assert (z + 0.0).tobytes() == en._mix(identity, z).tobytes()
    # a baseline step from x = -0.0 with zero directions lands on +0.0
    p = paper_logistic
    cfg = en.resolve_config(en.RunConfig(variant=en.CENTRALIZED_UNREGULARIZED),
                            p)
    states = en.AgentStates(x=np.full((1, 5), -0.0), lam=np.zeros((1, 10)),
                            avg_numerator=np.zeros((1, 5)), weight_sum=0.0)
    args = (states, p, en._IDENTITY_1X1, 0, cfg, np.zeros((1, 5)),
            np.zeros((1, 10)))
    lean = en._advance(*args)
    assert_same_states(lean, reference_advance(*args))
    assert not np.signbit(lean.x).any()


def counted_mix(monkeypatch):
    """Replace ``en._mix`` with a wrapper; return the list of its calls."""
    calls = []
    mix = en._mix

    def counted(csr, rows):
        calls.append(rows.shape)
        return mix(csr, rows)

    monkeypatch.setattr(en, "_mix", counted)
    return calls


@pytest.mark.parametrize("variant", en.VARIANTS)
def test_only_networked_steps_mix(variant, monkeypatch, paper_logistic,
                                  ws_matrix):
    calls = counted_mix(monkeypatch)
    en.run(paper_logistic, ws_matrix,
           en.RunConfig(variant=variant, iterations=7, record_every=7))
    baseline = variant == en.CENTRALIZED_UNREGULARIZED
    assert calls == ([] if baseline else [(100, 15)] * 7)


def test_one_agent_networked_run_still_mixes(monkeypatch):
    # a valid 1x1 matrix need not be the identity: only the baseline's
    # own identity skips the mix
    p = build_logistic_problem(generate_dataset(1, 3, seed=2), 0.2, 0.2)
    w = ConsensusMatrix.from_entries(np.array([[1.0 - 5e-13]]))
    assert w.csr.data[0] == 1.0 - 5e-13
    cfg = en.RunConfig(eta=1.0, iterations=5, record_every=5)
    calls = counted_mix(monkeypatch)
    lean = en.run(p, w, cfg)
    assert calls == [(1, 3 + p.n_constraints)] * 5
    monkeypatch.setattr(en, "_advance", reference_advance)
    assert_same_states(lean.final_states, en.run(p, w, cfg).final_states)


def reference_advance(states, p, w, t, cfg, grad_x, grad_lam):
    """The step as it was before the direct kernel call: column-slice
    writes into one buffer, ``csr @ z`` for every variant, and the
    projection's ``.max`` bound."""
    alpha = en._alpha(t, cfg)
    alpha_next = en._alpha(t + 1, cfg)
    n, d = grad_x.shape
    z = np.empty((n, d + grad_lam.shape[1]))
    y, gamma = z[:, :d], z[:, d:]
    np.multiply(grad_x, alpha, out=y)
    np.subtract(states.x, y, out=y)
    np.multiply(grad_lam, alpha, out=gamma)
    np.add(states.lam, gamma, out=gamma)
    if not np.isfinite(z).all():
        en._check_finite(y, gamma, t)
    mixed = w.csr @ z
    rows = mixed[:, :d]
    if np.abs(rows).max(initial=0.0) * math.sqrt(d) <= 0.5 * p.radius:
        new_x = rows.copy()
    else:
        new_x = rows * (p.radius / np.maximum(
            p.radius, metrics.row_norms(rows)))[:, None]
    new_lam = np.maximum(mixed[:, d:], 0.0)
    en._check_dual_guard(new_lam, t)
    num = states.avg_numerator
    wsum = states.weight_sum
    if wsum == 0.0:
        num = num + alpha * states.x
        wsum += alpha
    num = num + alpha_next * new_x
    wsum += alpha_next
    return en.AgentStates(x=new_x, lam=new_lam, avg_numerator=num,
                          weight_sum=wsum)


def assert_same_states(a, b):
    for name in ("x", "lam", "avg_numerator"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.weight_sum == b.weight_sum


@pytest.mark.parametrize("init", [en.INIT_ORIGIN, en.INIT_RANDOM_FEASIBLE])
@pytest.mark.parametrize("variant", en.VARIANTS)
def test_steps_equal_the_reference_step(variant, init, monkeypatch,
                                        paper_logistic, ws_matrix):
    cfg = en.RunConfig(variant=variant, eta=1.0, iterations=300,
                       record_every=300, seed=5, init=init)
    lean = en.run(paper_logistic, ws_matrix, cfg)
    monkeypatch.setattr(en, "_advance", reference_advance)
    expected = en.run(paper_logistic, ws_matrix, cfg)
    assert lean.aborted is None and expected.aborted is None
    assert np.any(lean.final_states.lam != 0.0)
    assert_same_states(lean.final_states, expected.final_states)
    assert lean.to_csv_text() == expected.to_csv_text()


def test_random_feasible_initialization(paper_logistic):
    cfg = en.RunConfig(eta=1.0, init="random_feasible", seed=4)
    states = en.initial_states(paper_logistic, cfg)
    assert states.x.shape == (100, 5)
    assert np.all(paper_logistic.constraint_values_many(states.x) <= 1e-12)
    assert np.all(np.linalg.norm(states.x, axis=1) <= 1.0 + 1e-12)
    assert np.any(states.x != 0.0)
    again = en.initial_states(paper_logistic, cfg)
    assert np.array_equal(states.x, again.x)


def per_agent_random_feasible(p, seed):
    """Oracle: each agent's start bisected on its own, one
    ``constraint_values`` call per trial."""
    rows = []
    for agent in range(p.n_agents):
        key = np.array([np.uint64(seed), np.uint64(2 ** 63 + agent)],
                       dtype=np.uint64)
        v = np.random.Generator(np.random.Philox(key=key)).normal(size=p.dim)
        v *= p.radius / max(float(np.linalg.norm(v)), 1e-300)

        def feasible(c):
            return bool(np.all(p.constraint_values(c * v) <= 0.0))

        if feasible(1.0):
            rows.append(v)
            continue
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        rows.append(lo * v)
    return np.vstack(rows)


def half_plane_problem():
    """Seven agents in d = 2 with f_i(x) = <a_i, x> under x_0 <= 1/2 and
    x_1 >= -1/2: some unit-sphere samples are feasible as drawn."""
    rng = np.random.default_rng(3)
    coefs = rng.normal(size=(7, 2))
    coefs /= np.linalg.norm(coefs, axis=1, keepdims=True)
    objectives = [lambda x, a=a: (float(a @ x), a) for a in coefs]
    constraints = [lambda x: (float(x[0] - 0.5), np.array([1.0, 0.0])),
                   lambda x: (float(-x[1] - 0.5), np.array([0.0, -1.0]))]
    return make_custom_problem(objectives, constraints, lipschitz=1.0,
                               radius=1.0, dim=2)


@pytest.mark.parametrize("problem", ["paper_logistic", "paper_hinge",
                                     "half_plane"])
def test_random_feasible_starts_match_per_agent_bisection(problem, request):
    p = (half_plane_problem() if problem == "half_plane"
         else request.getfixturevalue(problem))
    for seed in (0, 4, 2 ** 40):
        cfg = en.RunConfig(eta=1.0, init="random_feasible", seed=seed)
        starts = en.initial_states(p, cfg).x
        oracle = per_agent_random_feasible(p, seed)
        assert starts.tobytes() == oracle.tobytes()
    if problem == "half_plane":
        # both branches ran: drawn points kept, others scaled inward
        drawn = np.abs(np.linalg.norm(starts, axis=1) - 1.0) < 1e-12
        assert 0 < drawn.sum() < p.n_agents


def test_centralized_matches_hand_rolled_loop():
    # independent implementation of the unregularized centralized update
    data = generate_dataset(10, 3, seed=7)
    p = build_logistic_problem(data, 0.1, 0.1)
    cfg = en.RunConfig(variant=en.CENTRALIZED_UNREGULARIZED, iterations=80,
                       record_every=20)
    trace = en.run(p, None, cfg)

    a, b = data.features, data.labels
    lower, upper = -0.1, 0.1
    x = np.zeros(3)
    lam = np.zeros(6)
    for t in range(80):
        alpha = 1.0 / math.sqrt(t + 1.0)
        z = b * (a @ x)
        grad_f = a.T @ (b / (1.0 + np.exp(-z))) / 10.0
        grad_g = np.concatenate([-np.eye(3), np.eye(3)])
        g_val = np.concatenate([lower - x, x - upper])
        y = x - alpha * (grad_f + grad_g.T @ lam)
        gam = lam + alpha * g_val
        x = y * (1.0 / max(1.0, np.linalg.norm(y)))
        lam = np.maximum(gam, 0.0)
    assert_allclose(trace.final_states.x[0], x, atol=1e-12)
    assert_allclose(trace.final_states.lam[0], lam, atol=1e-12)


@pytest.mark.parametrize("init", ["origin", "random_feasible"])
def test_step_serves_the_centralized_baseline(init):
    # the baseline's states are one row of the n-agent problem, stepped
    # on the mean objective's gradient
    p = build_logistic_problem(generate_dataset(20, 3, seed=2), 0.1, 0.1)
    cfg = en.RunConfig(variant=en.CENTRALIZED_UNREGULARIZED, init=init,
                       iterations=3, seed=5)
    trace = en.run(p, None, cfg)
    states = en.initial_states(p, trace.config)
    assert states.x.shape == (1, 3) and states.lam.shape == (1, 6)
    assert np.array_equal(states.x, trace.initial_states.x)
    if init == "random_feasible":  # the one row starts where agent 0 does
        agents = en.initial_states(p, dataclasses.replace(
            trace.config, variant="deterministic"))
        assert np.array_equal(states.x, agents.x[:1])
    for t in range(3):
        states = en.step(states, p, None, t, trace.config)
    for name in ("x", "lam", "avg_numerator"):
        assert np.array_equal(getattr(states, name),
                              getattr(trace.final_states, name))


def test_baseline_step_does_not_read_the_matrix(paper_logistic, ws_matrix):
    cfg = en.resolve_config(en.RunConfig(variant=en.CENTRALIZED_UNREGULARIZED,
                                         init="random_feasible", seed=3),
                            paper_logistic)
    states = en.initial_states(paper_logistic, cfg)
    outs = [en.step(states, paper_logistic, w, 0, cfg)
            for w in (None, ws_matrix, identity_matrix())]
    for out in outs[1:]:
        for name in ("x", "lam", "avg_numerator", "weight_sum"):
            assert np.array_equal(getattr(out, name), getattr(outs[0], name))


@pytest.mark.parametrize("variant", ["deterministic", "stochastic"])
def test_networked_variants_need_a_matrix(variant, paper_logistic):
    cfg = en.RunConfig(variant=variant, eta=1.0, iterations=5)
    with pytest.raises(en.EngineError, match="mixing matrix is missing"):
        en.run(paper_logistic, None, cfg)
    resolved = en.resolve_config(cfg, paper_logistic)
    states = en.initial_states(paper_logistic, resolved)
    with pytest.raises(en.EngineError, match="mixing matrix is missing"):
        en.step(states, paper_logistic, None, 0, resolved)


BASELINE_CFG = en.RunConfig(variant=en.CENTRALIZED_UNREGULARIZED,
                            iterations=40, record_every=7, seed=2,
                            init="random_feasible")


def assert_same_run(a, b):
    assert a.to_csv_text() == b.to_csv_text()
    for name in ("x", "lam", "avg_numerator", "weight_sum"):
        assert np.array_equal(getattr(a.final_states, name),
                              getattr(b.final_states, name))
    assert a.sigma2 == b.sigma2 == 0.0


def test_baseline_run_does_not_read_the_matrix(paper_logistic, ws_matrix,
                                              paper_reference):
    assert_same_run(
        en.run(paper_logistic, ws_matrix, BASELINE_CFG, reference=paper_reference),
        en.run(paper_logistic, None, BASELINE_CFG, reference=paper_reference))


@pytest.mark.parametrize("variant", en.VARIANTS)
def test_step_rejects_a_mismatched_matrix(variant, paper_logistic):
    # the baseline mixes its one row with the 1x1 identity
    cfg = en.RunConfig(variant=variant, eta=1.0)
    states = en.initial_states(paper_logistic, en.RunConfig())
    with pytest.raises(en.EngineError, match="1x1 but the states have 100 rows"):
        en.step(states, paper_logistic, identity_matrix(), 0, cfg)


@pytest.mark.parametrize("variant", en.VARIANTS)
@pytest.mark.parametrize("name,cols", [("lam", 9), ("x", 4),
                                       ("avg_numerator", 2)])
def test_step_rejects_misshapen_states(variant, name, cols, paper_logistic,
                                       ws_matrix):
    cfg = en.resolve_config(en.RunConfig(variant=variant), paper_logistic)
    states = en.initial_states(paper_logistic, cfg)
    rows = states.n_agents
    setattr(states, name, np.zeros((rows, cols)))
    with pytest.raises(en.EngineError,
                       match=rf"states.{name} is \({rows}, {cols}\)"):
        en.step(states, paper_logistic, ws_matrix, 0, cfg)


@pytest.mark.parametrize("name", ["x", "lam"])
def test_step_rejects_zero_dimensional_states(name):
    # a 0-d array has no row count: an EngineError, not an IndexError
    p = build_logistic_problem(generate_dataset(8, 3, seed=1), 0.1, 0.1)
    states = en.initial_states(p, BASELINE_CFG)
    setattr(states, name, np.float64(0.0))
    with pytest.raises(en.EngineError, match=rf"states.{name} must be 2-d"):
        en.step(states, p, None, 0, BASELINE_CFG)


@pytest.mark.parametrize("seed,ok", [(2 ** 64 - 1, True), (2 ** 64, False),
                                     (-1, False)])
def test_resolve_config_bounds_the_seed(seed, ok, paper_logistic):
    # the seed is a 64-bit Philox key word
    cfg = en.RunConfig(eta=1.0, seed=seed)
    if ok:
        assert en.resolve_config(cfg, paper_logistic).seed == seed
    else:
        with pytest.raises(en.EngineError,
                           match=rf"seed .* is not an integer in \[0, {2 ** 64}\)"):
            en.resolve_config(cfg, paper_logistic)


@pytest.mark.parametrize("field,value", [
    ("seed", 1.5), ("seed", True), ("seed", np.nan), ("record_every", 2.5),
    ("record_every", np.int64(0)), ("iterations", 2.5), ("iterations", -1)])
def test_resolve_config_takes_integers_only(field, value, paper_logistic):
    # a seed of 1.5 ran as seed 1, and record_every = 2.5 recorded at 0, 5, 10
    cfg = en.RunConfig(variant="stochastic", eta=1.0, **{field: value})
    with pytest.raises(en.EngineError, match=f"^{field} .* is not an integer"):
        en.resolve_config(cfg, paper_logistic)


def test_run_takes_numpy_integers():
    p = build_logistic_problem(generate_dataset(6, 3, seed=2), 0.1, 0.1)
    w = lazy_metropolis(generate_barbell(6))
    cfg = en.RunConfig(variant="stochastic", iterations=7, seed=3, record_every=2)
    numpy_cfg = dataclasses.replace(cfg, iterations=np.int64(7),
                                    seed=np.uint64(3), record_every=np.int32(2))
    assert en.run(p, w, numpy_cfg).to_csv_text() == en.run(p, w, cfg).to_csv_text()


@pytest.mark.parametrize("cfg", [
    en.RunConfig(variant="stochastic", init="random_feasible", iterations=5,
                 seed=4, record_every=2),
    en.RunConfig(variant=en.CENTRALIZED_UNREGULARIZED, iterations=5)])
def test_run_leaves_the_initial_states_as_built(cfg):
    # the trace keeps the t = 0 states themselves, with no copy: no step
    # may write into the states it reads
    p = build_logistic_problem(generate_dataset(6, 3, seed=2), 0.1, 0.1)
    trace = en.run(p, lazy_metropolis(generate_barbell(6)), cfg)
    want = en.initial_states(p, cfg)
    for name in ("x", "lam", "avg_numerator"):
        got = getattr(trace.initial_states, name)
        assert got.tobytes() == getattr(want, name).tobytes()
    assert trace.initial_states.weight_sum == want.weight_sum == 0.0
    assert not np.array_equal(trace.final_states.x, want.x)


def test_centralized_requires_matching_variant(paper_logistic,
                                              paper_reference):
    # the old entry point of the baseline: a checked alias of run
    with pytest.raises(en.EngineError):
        en.run_centralized_unregularized(paper_logistic,
                                         en.RunConfig(variant="deterministic"))
    assert_same_run(
        en.run_centralized_unregularized(paper_logistic, BASELINE_CFG,
                                         reference=paper_reference),
        en.run(paper_logistic, None, BASELINE_CFG, reference=paper_reference))


def test_run_rejects_mismatched_matrix(paper_logistic):
    with pytest.raises(en.EngineError):
        en.run(paper_logistic, identity_matrix(3), en.RunConfig(eta=1.0))


def test_matrix_size_is_read_off_the_csr():
    csr = identity_matrix(3).csr
    with pytest.raises(TypeError):
        ConsensusMatrix(n=5, csr=csr)
    w = ConsensusMatrix(csr=csr)
    assert w.n == 3
    p = build_logistic_problem(generate_dataset(5, 2, seed=1), 0.1, 0.1)
    with pytest.raises(en.EngineError, match="3x3"):
        en.run(p, w, en.RunConfig(eta=1.0, iterations=2))


def test_monitor_bounds_clean_run(paper_logistic, ws_matrix, paper_reference):
    cfg = en.RunConfig(eta=1.0, iterations=300, record_every=50,
                       monitor_bounds=True)
    trace = en.run(paper_logistic, ws_matrix, cfg, reference=paper_reference)
    assert trace.warnings == []
    checks = verify.bound_monitor_checks(paper_logistic, paper_reference,
                                         trace)
    assert len(checks) == 5 and all(c.ok for c in checks), checks


@pytest.fixture(scope="module")
def small_instance():
    """A 20-agent logistic problem, its WS(20, 4, 0.2) graph and reference."""
    from pdnet.graphs import generate_watts_strogatz
    from pdnet.problems import reference_optimum
    p = build_logistic_problem(generate_dataset(20, 3, seed=2), 0.1, 0.1)
    return (p, generate_watts_strogatz(20, 4, 0.2, seed=3),
            reference_optimum(p, iterations=2000))


def test_reference_free_run_solves_no_sigma2(sigma2_solves, small_instance):
    from pdnet.graphs import lazy_metropolis
    p, g, _ = small_instance
    w = lazy_metropolis(g)
    trace = en.run(p, w, en.RunConfig(eta=1.0, iterations=30, record_every=5))
    assert sigma2_solves == []
    assert all(math.isnan(r.thm2_bound) for r in trace.records)
    assert trace.sigma2 == w.sigma2
    assert sigma2_solves == [20]


def test_run_with_reference_solves_sigma2_once(sigma2_solves, small_instance):
    from pdnet.graphs import lazy_metropolis
    p, g, ref = small_instance
    w = lazy_metropolis(g)
    cfg = en.RunConfig(eta=1.0, iterations=30, record_every=5)
    trace = en.run(p, w, cfg, reference=ref)
    en.run(p, w, cfg, reference=ref)
    assert sigma2_solves == [20]
    assert trace.sigma2 == w.sigma2
    assert not math.isnan(trace.records[-1].thm2_bound)


def test_monitored_reference_free_run_solves_sigma2(sigma2_solves,
                                                    small_instance):
    from pdnet.graphs import lazy_metropolis
    p, g, _ = small_instance
    cfg = en.RunConfig(eta=1.0, iterations=30, record_every=5,
                       monitor_bounds=True)
    en.run(p, lazy_metropolis(g), cfg)
    assert sigma2_solves == [20]


def test_centralized_trace_sigma2_is_zero(small_instance):
    p, _, ref = small_instance
    cfg = en.RunConfig(variant=en.CENTRALIZED_UNREGULARIZED, iterations=10)
    assert en.run(p, None, cfg, reference=ref).sigma2 == 0.0


def test_missigned_dual_update_trips_lambda_bound(monkeypatch, paper_logistic,
                                                  ws_matrix):
    # mutation test: flipping the dual direction must be caught by the
    # multiplier-norm envelope
    original = en._directions

    def flipped(p, states, cfg, t=None, stream=None):
        gx, glam = original(p, states, cfg, t, stream)
        return gx, -glam

    monkeypatch.setattr(en, "_directions", flipped)
    cfg = en.RunConfig(eta=1.0, iterations=400, record_every=20,
                       monitor_bounds=True)
    trace = en.run(paper_logistic, ws_matrix, cfg)
    bound = metrics.lambda_norm_bound(paper_logistic, 1.0)
    worst = max(r.sum_lambda_sq for r in trace.records)
    assert worst > bound or trace.aborted is not None
    assert trace.warnings or trace.aborted
    # one line per check that fired, however many records exceeded it
    names = [line.split(" exceeded")[0] for line in trace.warnings]
    assert len(names) == len(set(names))
    assert "multiplier norm bound" in names
    checks = {c.name: c.ok for c in verify.bound_monitor_checks(
        paper_logistic, None, trace)}
    assert checks["multiplier norm bound"] is False


def test_relative_error_drops_on_wide_box_instance(paper_dataset, ws_matrix):
    # consensus-limited regime: the box is slack inside the ball, so the
    # relative error at T = 1e4 falls well below a third of its t = 100 value
    from pdnet.problems import build_logistic_problem, reference_optimum
    p = build_logistic_problem(paper_dataset, 1.0, 1.0)
    ref = reference_optimum(p, iterations=100_000)
    cfg = en.RunConfig(eta=1.0, iterations=10_000, record_every=100, seed=1)
    trace = en.run(p, ws_matrix, cfg, reference=ref)
    by_t = {r.t: r for r in trace.records}
    assert by_t[10_000].eps < by_t[100].eps / 3.0


def test_trace_csv_layout(paper_logistic, ws_matrix, paper_reference):
    cfg = en.RunConfig(eta=1.0, iterations=20, record_every=10)
    trace = en.run(paper_logistic, ws_matrix, cfg, reference=paper_reference)
    lines = trace.to_csv_text().splitlines()
    assert lines[0].startswith(
        "t,eps_G,delta_G,max_lambda_norm,consensus_diameter,bound_margin_thm2")
    assert len(lines) == 1 + len(trace.records)


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("variant,init", [
    ("deterministic", "origin"), ("stochastic", "random_feasible"),
    ("centralized_unregularized", "origin")])
def test_run_is_a_loop_of_steps(variant, init, record_every, paper_logistic,
                                ws_matrix, paper_reference):
    # the loop in run and the public step share one kernel: stepping by
    # hand and recording with compute_record gives the run's bits
    cfg = en.RunConfig(variant=variant, init=init, eta=1.0, iterations=30,
                       seed=4, record_every=record_every)
    # the baseline steps the n-agent problem's one row and does not read w
    p, w = paper_logistic, ws_matrix
    trace = en.run(p, w, cfg, reference=paper_reference)
    cfg = trace.config
    states = en.initial_states(p, cfg)
    outputs0 = states.output_points()
    normalizers = dict(
        ref=paper_reference,
        initial_fgaps=p.mean_objective_many(outputs0) - paper_reference.f_star,
        initial_gnorms=np.linalg.norm(p.constraint_values_many(outputs0), axis=1))

    def record(t, grad_x, grad_lam):
        return metrics.compute_record(
            p, [metrics.Snapshot(t, states, grad_x, grad_lam)], cfg.eta,
            trace.sigma2, **normalizers)[0]

    records = []
    for t in range(cfg.iterations):
        if t % record_every == 0:
            records.append(record(t, *en._directions(p, states, cfg, t)))
        before = states.copy()
        after = en.step(states, p, w, t, cfg)
        for name in ("x", "lam", "avg_numerator"):
            assert np.array_equal(getattr(states, name), getattr(before, name))
        assert states.weight_sum == before.weight_sum
        states = after
    records.append(record(cfg.iterations, *en._directions(p, states, cfg)))

    assert ([metrics.record_csv_row(r) for r in trace.records]
            == [metrics.record_csv_row(r) for r in records])
    final = trace.final_states
    for name in ("x", "lam", "avg_numerator"):
        assert np.array_equal(getattr(final, name), getattr(states, name))
    assert final.weight_sum == states.weight_sum


# -- records in chunks ----------------------------------------------------------

def records_one_at_a_time(p, w, cfg, reference, sigma2):
    """(records, aborted) of ``run(p, w, cfg, reference)``, stepping by hand
    and calling compute_record once per record."""
    cfg = en.resolve_config(cfg, p)
    states = en.initial_states(p, cfg)
    fgaps, gnorms = metrics.initial_normalizers(p, states, reference)

    def record(t, states, grad_x, grad_lam):
        return metrics.compute_record(
            p, [metrics.Snapshot(t, states, grad_x, grad_lam)], cfg.eta,
            sigma2, ref=reference, initial_fgaps=fgaps,
            initial_gnorms=gnorms)[0]

    records, aborted = [], None
    try:
        for t in range(cfg.iterations):
            if t % cfg.record_every == 0:
                records.append(record(t, states,
                                      *en._directions(p, states, cfg, t)))
            states = en.step(states, p, w, t, cfg)
    except en.DivergenceError as exc:
        aborted = str(exc)
    else:
        records.append(record(cfg.iterations, states,
                              *en._directions(p, states, cfg)))
    return records, aborted


def chunked_run(monkeypatch, p, w, cfg, reference, per_chunk):
    """The trace of ``run`` with a budget of ``per_chunk`` snapshots (all
    of them when None), and the record count of each compute_record call."""
    states = en.initial_states(p, en.resolve_config(cfg, p))
    snapshot_bytes = 3 * states.x.nbytes + 2 * states.lam.nbytes
    monkeypatch.setattr(metrics, "RECORD_CHUNK_BYTES", 10 ** 12
                        if per_chunk is None else int(per_chunk * snapshot_bytes))
    chunks = []
    compute = metrics.compute_record

    def counted(p, snapshots, *args, **kwargs):
        chunks.append(len(snapshots))
        return compute(p, snapshots, *args, **kwargs)

    monkeypatch.setattr(metrics, "compute_record", counted)
    trace = en.run(p, w, cfg, reference=reference)
    monkeypatch.setattr(metrics, "compute_record", compute)
    return trace, chunks


def csv_rows(records):
    return [metrics.record_csv_row(r) for r in records]


@pytest.mark.parametrize("per_chunk,chunks", [
    (1, [1] * 31), (4.5, [4] * 7 + [3]), (None, [31])])
@pytest.mark.parametrize("with_reference", [True, False])
@pytest.mark.parametrize("variant,init", [
    ("deterministic", "origin"), ("stochastic", "origin"),
    ("centralized_unregularized", "origin"),
    ("deterministic", "random_feasible"), ("stochastic", "random_feasible")])
def test_chunked_records_equal_records_taken_one_at_a_time(
        variant, init, with_reference, per_chunk, chunks, monkeypatch,
        paper_logistic, ws_matrix, paper_reference):
    # a chunk of one record, chunks split mid-run, and one chunk for all
    # 31 records give the bits of one compute_record call per record
    p = paper_logistic
    w = None if variant == en.CENTRALIZED_UNREGULARIZED else ws_matrix
    reference = paper_reference if with_reference else None
    cfg = en.RunConfig(variant=variant, init=init, eta=1.0, iterations=30,
                       seed=4, record_every=1)
    trace, sizes = chunked_run(monkeypatch, p, w, cfg, reference, per_chunk)
    expected, aborted = records_one_at_a_time(p, w, cfg, reference,
                                              trace.sigma2)
    assert sizes == chunks
    assert aborted is None and trace.aborted is None
    assert csv_rows(trace.records) == csv_rows(expected)


@pytest.mark.parametrize("variant", ["deterministic", "stochastic"])
def test_aborted_run_flushes_its_last_chunk(variant, monkeypatch,
                                            paper_logistic, ws_matrix,
                                            paper_reference):
    # the run aborts at t = 13 with records 12 and 13 pending in a chunk
    # of four: they are still computed, and the abort reads as before
    original = en._directions

    def poisoned(p, states, cfg, t=None, stream=None):
        grad_x, grad_lam = original(p, states, cfg, t, stream)
        if t == 13:
            grad_lam = grad_lam.copy()
            grad_lam[3, 0] = np.nan
        return grad_x, grad_lam

    monkeypatch.setattr(en, "_directions", poisoned)
    cfg = en.RunConfig(variant=variant, eta=1.0, iterations=30, seed=4,
                       record_every=1)
    expected, aborted = records_one_at_a_time(
        paper_logistic, ws_matrix, cfg, paper_reference, ws_matrix.sigma2)
    trace, sizes = chunked_run(monkeypatch, paper_logistic, ws_matrix, cfg,
                               paper_reference, 4)
    assert sizes == [4, 4, 4, 2]
    assert aborted == trace.aborted == "non-finite lam at t=13, agent 3"
    assert csv_rows(trace.records) == csv_rows(expected)
    assert [r.t for r in trace.records] == list(range(14))


def test_chunked_monitor_warns_as_one_record_at_a_time(monkeypatch,
                                                       paper_logistic,
                                                       ws_matrix):
    # the flipped dual direction of the mutation test above fires monitors;
    # they read the records in t order whatever the chunks
    original = en._directions

    def flipped(p, states, cfg, t=None, stream=None):
        gx, glam = original(p, states, cfg, t, stream)
        return gx, -glam

    monkeypatch.setattr(en, "_directions", flipped)
    cfg = en.RunConfig(eta=1.0, iterations=400, record_every=20,
                       monitor_bounds=True)
    traces = []
    for per_chunk in (1, 3, None):
        traces.append(chunked_run(monkeypatch, paper_logistic, ws_matrix,
                                  cfg, None, per_chunk)[0])
    one = traces[0]
    assert one.warnings
    for trace in traces[1:]:
        assert trace.warnings == one.warnings
        assert trace.aborted == one.aborted
        assert csv_rows(trace.records) == csv_rows(one.records)
