"""Datasets, loss/constraint oracles, and the reference solver."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdnet import problems
from pdnet.problems import (
    ProblemError,
    ReferenceError,
    SyntheticDataset,
    _clip_in_ball,
    build_hinge_problem,
    build_logistic_problem,
    generate_dataset,
    reference_optimum,
)

from conftest import box_constraints, constraint_grads, make_custom_problem


def ball_points(rng, n, d, radius=1.0):
    pts = rng.normal(size=(n, d))
    pts *= (radius * rng.random((n, 1)) ** (1 / d)
            / np.linalg.norm(pts, axis=1, keepdims=True))
    return pts


def block_bracket(p, pts):
    """The bracket of the one block ``pts``, or None where it is (-inf, inf)."""
    lower, upper = p.mean_objective_bracket(pts[None])
    assert lower.shape == upper.shape == (1, len(pts))
    if np.all(lower == -np.inf) and np.all(upper == np.inf):
        return None
    return lower[0], upper[0]


# -- dataset -----------------------------------------------------------------

def test_dataset_features_on_unit_sphere():
    data = generate_dataset(200, 7, seed=3)
    assert_allclose(np.linalg.norm(data.features, axis=1), 1.0, atol=1e-12)
    assert set(np.unique(data.labels)) <= {-1.0, 1.0}


def test_dataset_deterministic():
    a = generate_dataset(3, 2, seed=42)
    b = generate_dataset(3, 2, seed=42)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.ground_truth_w, b.ground_truth_w)


def test_dataset_label_frequencies_match_generator():
    # bucket by the generating probability and compare empirical frequency
    # against the binomial 3-sigma band, per probability decile
    data = generate_dataset(10_000, 5, seed=1)
    p_plus = 1.0 / (1.0 + np.exp(data.features @ data.ground_truth_w))
    deciles = np.quantile(p_plus, np.linspace(0, 1, 11))
    for lo, hi in zip(deciles[:-1], deciles[1:]):
        mask = (p_plus >= lo) & (p_plus <= hi)
        count = int(mask.sum())
        if count < 50:
            continue
        expected = float(p_plus[mask].mean())
        observed = float((data.labels[mask] > 0).mean())
        sigma = math.sqrt(expected * (1 - expected) / count)
        assert abs(observed - expected) <= 3 * sigma + 1e-12


def test_dataset_invalid_sizes():
    with pytest.raises(ProblemError):
        generate_dataset(0, 3)


@pytest.mark.parametrize("args", [(2.5, 3), (4, 3.0), (True, 3), (4, 3, 1.5),
                                  (4, 3, np.nan), (4, 3, -1), (np.int64(-1), 3)])
def test_dataset_takes_integers_only(args):
    with pytest.raises(ProblemError, match="is not an integer"):
        generate_dataset(*args)


def test_dataset_takes_numpy_integers():
    got = generate_dataset(np.int64(6), np.uint8(3), seed=np.uint64(4))
    want = generate_dataset(6, 3, seed=4)
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(got.labels, want.labels)


@pytest.mark.parametrize("iterations", [2.5, 10.0, True, 0, np.nan])
def test_reference_iterations_must_be_an_integer(iterations):
    p = build_logistic_problem(generate_dataset(4, 2, seed=1), 0.5, 0.5)
    with pytest.raises(ProblemError,
                       match=f"iterations {iterations!r} is not an integer >= 1"):
        reference_optimum(p, iterations=iterations)


@pytest.mark.parametrize("n,d", [(10 ** 20, 5), (5, 10 ** 20),
                                 (2 ** 31, 2 ** 31)])
def test_dataset_rejects_sizes_no_array_can_hold(n, d):
    with pytest.raises(ProblemError, match="numpy array"):
        generate_dataset(n, d)


@pytest.mark.parametrize("build", [build_logistic_problem, build_hinge_problem])
def test_box_margins_whose_norm_bound_overflows_are_rejected(build):
    # d = 5: sqrt(10) (1e153 + 1) squares to 1e307, sqrt(10) (1e154 + 1) to inf
    data = generate_dataset(4, 5, seed=1)
    assert build(data, 1e153, 0.1).box[0][0] == -1e153
    for l, u in ((1e154, 0.1), (0.1, 1e300)):
        with pytest.raises(ProblemError, match="overflow"):
            build(data, l, u)


# -- logistic ----------------------------------------------------------------

def test_logistic_gradient_at_origin(paper_dataset, paper_logistic):
    x0 = np.zeros(5)
    for i in (0, 17, 99):
        val, grad = paper_logistic.objective(i, x0)
        assert_allclose(val, math.log(2.0), rtol=1e-15)
        assert_allclose(grad, paper_dataset.labels[i] / 2.0
                        * paper_dataset.features[i], atol=1e-15)


def test_logistic_constraint_layout(paper_logistic):
    assert paper_logistic.n_constraints == 10
    assert_allclose(paper_logistic.constraint_values(np.zeros(5)), -0.1,
                    atol=1e-15)


def test_logistic_gradient_matches_finite_differences(paper_logistic):
    rng = np.random.default_rng(2)
    h = 1e-6
    for x in ball_points(rng, 20, 5, radius=0.9):
        for i in (0, 3, 50):
            _, grad = paper_logistic.objective(i, x)
            num = np.empty(5)
            for k in range(5):
                e = np.zeros(5)
                e[k] = h
                num[k] = (paper_logistic.objective(i, x + e)[0]
                          - paper_logistic.objective(i, x - e)[0]) / (2 * h)
            assert np.linalg.norm(num - grad) <= 1e-5 * max(1.0, np.linalg.norm(grad))


def logistic_slopes(z, labels):
    """b * l'(b z) through the batched gradient: one agent per z, with the
    feature 1 and label b."""
    data = SyntheticDataset(features=np.ones((len(z), 1)), labels=labels)
    p = build_logistic_problem(data, 1.0, 1.0)
    return p.agent_objective_grads(z[:, None])[:, 0]


def test_logistic_slope_is_silent_and_exact_past_overflow():
    # exp overflows past 709.78: the slope is then an exact 0 or 1, with
    # no numpy warning
    from scipy.special import expit
    z = np.array([-800.0, -710.0, 710.0, 800.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in (1.0, -1.0):
            labels = np.full(len(z), b)
            assert np.array_equal(logistic_slopes(z * b, labels),
                                  b * expit(z))
            data = SyntheticDataset(features=np.array([[1.0]]),
                                    labels=np.array([b]))
            p = build_logistic_problem(data, 1.0, 1.0)
            for zi in z:
                assert p.mean_objective_grad(np.array([zi * b]))[1][0] == (
                    b * expit(zi))
    assert np.array_equal(expit(z), [0.0, 0.0, 1.0, 1.0])


def test_logistic_slope_within_four_ulp_of_expit():
    from scipy.special import expit
    rng = np.random.default_rng(22)
    z = np.concatenate([rng.normal(scale=3.0, size=500_000),
                        rng.uniform(-745.0, 745.0, size=500_000)])
    labels = np.where(rng.random(len(z)) < 0.5, 1.0, -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logistic_slopes(z, labels)
    want = labels * expit(labels * z)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))


def test_dataset_labels_match_the_expit_construction():
    # labels are +1 with probability expit(-<w, a_i>), drawn as before
    from scipy.special import expit
    for seed in range(20):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = generate_dataset(2000, 5, seed=seed)
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2000, 5))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        w = rng.normal(size=5)
        p_plus = expit(-(a @ w))
        assert np.array_equal(data.labels,
                              np.where(rng.random(2000) < p_plus, 1.0, -1.0))


def test_logistic_value_stable_for_large_arguments():
    data = SyntheticDataset(features=np.array([[1.0]]), labels=np.array([1.0]))
    p = build_logistic_problem(data, 1.0, 1.0)
    val, grad = p.objective(0, np.array([700.0]))
    assert val == pytest.approx(700.0)
    assert np.isfinite(grad).all()
    val_neg, _ = p.objective(0, np.array([-700.0]))
    assert val_neg == pytest.approx(0.0, abs=1e-300)


def loss_oracle(family, a, b):
    """Per-sample loss oracle written out by hand, the reference below."""
    def oracle(x):
        z = b * float(a @ x)
        if family == "logistic":
            return math.log1p(math.exp(z)), b / (1.0 + math.exp(-z)) * a
        return max(0.0, 1.0 - z), (-b * a if z < 1.0 else np.zeros_like(a))
    return oracle


def test_fast_paths_match_oracles(paper_dataset, paper_logistic, paper_hinge):
    rng = np.random.default_rng(8)
    for family, p in (("logistic", paper_logistic), ("hinge", paper_hinge)):
        ref = make_custom_problem(
            [loss_oracle(family, a, b)
             for a, b in zip(paper_dataset.features, paper_dataset.labels)],
            box_constraints(*p.box), lipschitz=1.0, radius=1.0, dim=p.dim)
        x_rows = ball_points(rng, p.n_agents, p.dim)
        assert_allclose(p.agent_objective_values(x_rows),
                        ref.agent_objective_values(x_rows), rtol=1e-12, atol=1e-12)
        assert_allclose(p.agent_objective_grads(x_rows),
                        ref.agent_objective_grads(x_rows), rtol=1e-12, atol=1e-12)
        for i in range(0, p.n_agents, 13):
            v, g = p.objective(i, x_rows[i])
            v_ref, g_ref = ref.objective(i, x_rows[i])
            assert v == pytest.approx(v_ref, rel=1e-12)
            assert_allclose(g, g_ref, atol=1e-12)
        pts = x_rows[:7]
        assert_allclose(p.mean_objective_many(pts),
                        ref.mean_objective_many(pts), rtol=1e-12)
        v, g = p.mean_objective_grad(pts[0])
        v_ref, g_ref = ref.mean_objective_grad(pts[0])
        assert v == pytest.approx(v_ref, rel=1e-12)
        assert_allclose(g, g_ref, atol=1e-12)
        assert_allclose(p.constraint_values_many(pts),
                        ref.constraint_values_many(pts), atol=1e-12)
        assert_allclose(constraint_grads(p, pts[0]), constraint_grads(ref, pts[0]))
        lam = rng.random((p.n_agents, p.n_constraints))
        assert_allclose(p.agent_constraint_combo(x_rows, lam),
                        ref.agent_constraint_combo(x_rows, lam), atol=1e-12)
        ks = rng.integers(0, p.n_constraints, size=p.n_agents)
        assert_allclose(p.agent_constraint_rows(x_rows, ks),
                        ref.agent_constraint_rows(x_rows, ks))
        # bare oracles come with no curvature bound, so with no bracket
        assert block_bracket(ref, pts) is None
        for q in (p, ref):
            with pytest.raises(ProblemError, match="stack"):
                q.mean_objective_bracket(pts)


def test_mean_objective_rows_keep_their_bits_alone_and_in_any_block(monkeypatch):
    # a row's value may depend only on that row: the same bits alone, in any
    # subset of the points and at any block size; and it is the mean loss
    rng = np.random.default_rng(4)
    for n, d in ((1, 5), (2, 5), (7, 1), (100, 5), (241, 17), (600, 2)):
        data = generate_dataset(n, d, seed=n)
        pts = rng.normal(size=(n + 3, d))
        for build in (build_logistic_problem, build_hinge_problem):
            p = build(data, 0.1, 0.1)
            full = p.mean_objective_many(pts)
            z = (pts @ data.features.T) * data.labels
            assert_allclose(full, p.ops._loss_values(z).mean(axis=1),
                            rtol=1e-13)
            for i in (0, len(pts) // 2, len(pts) - 1):
                assert p.mean_objective_many(pts[i:i + 1])[0] == full[i]
            subset = rng.permutation(len(pts))[:max(1, len(pts) // 3)]
            assert (p.mean_objective_many(pts[subset]).tobytes()
                    == full[subset].tobytes())
            for block in (1, n, 3 * n + 1, 1 << 30):
                monkeypatch.setattr(problems, "MEAN_OBJECTIVE_BLOCK", block)
                assert p.mean_objective_many(pts).tobytes() == full.tobytes()
            monkeypatch.undo()
            assert p.mean_objective_many(pts[:0]).shape == (0,)


#: The (d, n) cases whose one-shot gemm bits differed between one and two
#: OpenBLAS threads in a sweep of n from 235 to 797 in steps of 3, plus
#: 2000 and 4999, for d in {2, 5, 17}.
THREAD_SENSITIVE_CASES = tuple((17, n) for n in (262, 271, 277, 307, 343, 358,
                                                  388, 541, 655))


def test_mean_objective_bits_do_not_depend_on_blas_threads():
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from pdnet import problems as pr\n"
        f"for d, n in {THREAD_SENSITIVE_CASES!r}:\n"
        "    data = pr.generate_dataset(n, d, seed=n)\n"
        "    pts = np.random.default_rng(n).normal(size=(n, d))\n"
        "    pts /= 2 * np.linalg.norm(pts, axis=1, keepdims=True)\n"
        "    for build in (pr.build_logistic_problem, pr.build_hinge_problem):\n"
        "        values = build(data, 0.1, 0.1).mean_objective_many(pts)\n"
        "        print(d, n, hashlib.sha256(values.tobytes()).hexdigest())\n")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(problems.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == 2 * len(THREAD_SENSITIVE_CASES)
    assert outputs[0] == outputs[1]


def test_mean_objective_bracket_holds_the_kernel_values():
    # random clouds about random centers, features of unit and of larger
    # norm, labels of any size: every value lies inside its bracket
    rng = np.random.default_rng(11)
    for trial in range(60):
        n, d = int(rng.integers(2, 60)), int(rng.integers(1, 8))
        data = generate_dataset(n, d, seed=trial)
        if trial % 3 == 2:
            data = SyntheticDataset(features=data.features * rng.uniform(0.2, 3.0),
                                    labels=data.labels * rng.uniform(0.5, 2.0))
        center = ball_points(rng, 1, d, radius=0.9)[0]
        spread = 10.0 ** rng.uniform(-12, 0)
        pts = center + spread * rng.normal(size=(int(rng.integers(2, 40)), d))
        for build in (build_logistic_problem, build_hinge_problem):
            p = build(data, 0.1, 0.1)
            bracket = block_bracket(p, pts)
            if bracket is None:
                assert build is build_hinge_problem
                continue
            values = p.mean_objective_many(pts)
            assert np.all(bracket[0] <= values) and np.all(values <= bracket[1])


def test_hinge_bracket_needs_a_center_inside_the_ball(paper_hinge):
    # the hinge's gradient at c is its affine gradient only while every
    # margin at c is below 1; the logistic bracket has no such condition
    inside = np.array([[0.6, 0.0, 0.0, 0.0, 0.0], [0.0, 0.6, 0.0, 0.0, 0.0]])
    assert block_bracket(paper_hinge, inside) is not None
    on_sphere = np.array([[1.0, 1e-3, 0.0, 0.0, 0.0], [1.0, -1e-3, 0.0, 0.0, 0.0]])
    assert block_bracket(paper_hinge, on_sphere) is None
    paper_logistic = build_logistic_problem(generate_dataset(100, 5, seed=1),
                                            0.1, 0.1)
    assert block_bracket(paper_logistic, on_sphere) is not None


# -- hinge -------------------------------------------------------------------

def test_hinge_at_origin(paper_dataset, paper_hinge):
    x0 = np.zeros(5)
    for i in (0, 31):
        val, grad = paper_hinge.objective(i, x0)
        assert val == 1.0
        assert_allclose(grad, -paper_dataset.labels[i] * paper_dataset.features[i])


def test_hinge_zero_subgradient_at_kink():
    data = SyntheticDataset(features=np.array([[1.0, 0.0]]),
                            labels=np.array([1.0]))
    p = build_hinge_problem(data, 2.0, 2.0)
    val, grad = p.objective(0, np.array([1.0, 0.0]))  # margin exactly 0
    assert val == 0.0
    assert np.array_equal(grad, np.zeros(2))


def test_hinge_subgradient_inequality_at_kink():
    data = SyntheticDataset(features=np.array([[1.0, 0.0]]),
                            labels=np.array([1.0]))
    p = build_hinge_problem(data, 2.0, 2.0)
    x = np.array([1.0, 0.0])
    fx, gx = p.objective(0, x)
    for y in (np.array([0.9, 0.1]), np.array([1.1, -0.2]), np.array([0.0, 0.0])):
        fy, _ = p.objective(0, y)
        assert fy >= fx + gx @ (y - x) - 1e-12


@pytest.mark.parametrize("family", ["logistic", "hinge"])
def test_subgradient_validity_and_norms(family, paper_logistic, paper_hinge):
    # 1e3 query points; at each, one objective oracle and every constraint
    # oracle must satisfy the subgradient inequality against 10 probes
    p = paper_logistic if family == "logistic" else paper_hinge
    rng = np.random.default_rng(17)
    xs = ball_points(rng, 1000, p.dim)
    ys = ball_points(rng, 10, p.dim)
    agents = rng.integers(0, p.n_agents, size=len(xs))
    for x, i in zip(xs, agents):
        fx, gx = p.objective(int(i), x)
        assert np.linalg.norm(gx) <= p.lipschitz + 1e-12
        for y in ys:
            fy, _ = p.objective(int(i), y)
            assert fy >= fx + gx @ (y - x) - 1e-10
        vx, gkx = p.constraint_values(x), constraint_grads(p, x)
        assert np.all(np.linalg.norm(gkx, axis=1) <= p.lipschitz + 1e-12)
        for y in ys[:4]:
            assert np.all(p.constraint_values(y) >= vx + gkx @ (y - x) - 1e-10)


# -- projection onto box intersect ball ---------------------------------------

def test_project_box_ball_variational_inequality():
    # the projection y must satisfy <v - y, z - y> <= 0 for feasible z
    rng = np.random.default_rng(4)
    lower = np.array([-0.9, -0.5, -1.4])
    upper = np.array([1.2, 0.4, 0.9])
    feas = []
    while len(feas) < 40:
        z = rng.uniform(lower, upper)
        if np.linalg.norm(z) <= 1.0:
            feas.append(z)
    for _ in range(40):
        v = rng.normal(size=3) * 2
        y = _clip_in_ball(v, lower, upper, 1.0)
        assert np.all(y >= lower - 1e-9) and np.all(y <= upper + 1e-9)
        assert np.linalg.norm(y) <= 1.0 + 1e-9
        for z in feas:
            assert (v - y) @ (z - y) <= 1e-8


def test_project_box_ball_clip_shortcut():
    lower, upper = np.full(3, -0.2), np.full(3, 0.2)
    v = np.array([5.0, -3.0, 0.1])
    assert_allclose(_clip_in_ball(v, lower, upper, 1.0),
                    [0.2, -0.2, 0.1], atol=1e-15)


def _bisect_in_ball(v, lower, upper, radius, max_scale=1.0):
    # the projection before the closed-form crossing: a full bisection on
    # [0, max_scale], kept verbatim as the oracle for its bits
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


def projection_draws(seed, count):
    """Seeded (v, lower, upper, max_scale) draws for the bit tests.

    d runs from 1 to 8 over asymmetric boxes around 0; about a fifth of the
    coordinates of v are zero; v's scale spans 1e-3 to 1e3, so some draws
    start inside the ball; every fourth draw takes a max_scale other than 1.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = 1 + i % 8
        lower = -rng.uniform(0.05, 2.0, d)
        upper = rng.uniform(0.05, 2.0, d)
        v = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3)
        v[rng.random(d) < 0.2] = 0.0
        max_scale = 10.0 ** rng.uniform(-1, 3) if i % 4 == 3 else 1.0
        yield v, lower, upper, max_scale


def test_clip_in_ball_bit_equal_to_full_bisection():
    kinds = {"inside": 0, "crossing": 0, "max_scale": 0, "zero": 0}
    for v, lower, upper, max_scale in projection_draws(11, 10_000):
        expect = _bisect_in_ball(v, lower, upper, 1.0, max_scale)
        got = _clip_in_ball(v, lower, upper, 1.0, max_scale)
        assert got.tobytes() == expect.tobytes(), (v, lower, upper, max_scale)
        kinds["inside" if np.linalg.norm(np.clip(max_scale * v, lower, upper))
              <= 1.0 else "crossing"] += 1
        kinds["max_scale"] += max_scale != 1.0
        kinds["zero"] += bool(np.any(v == 0))
    assert min(kinds.values()) >= 1000, kinds


def test_ball_scale_brackets_the_crossing():
    # the closed form lands within the few-ulp bracket on the solve's
    # instances, so the bisection finisher takes a handful of steps
    data = generate_dataset(100, 5, seed=1)
    p = build_logistic_problem(data, 1.0, 1.0)
    lower, upper = p.box
    rng = np.random.default_rng(2)
    for _ in range(200):
        v = rng.normal(size=5)
        est = problems._ball_scale(v, lower, upper, 1.0)
        norm = lambda s: np.linalg.norm(np.clip(s * v, lower, upper))
        assert norm(est * (1 - 4e-16)) <= 1.0 < norm(est * (1 + 4e-16))


@pytest.mark.parametrize("estimate", [
    lambda est: None, lambda est: 0.0, lambda est: 0.5 * est,
    lambda est: 2.0 * est, lambda est: math.inf, lambda est: math.nan],
    ids=["none", "zero", "half", "double", "inf", "nan"])
def test_clip_in_ball_falls_back_on_a_wrong_estimate(monkeypatch, estimate):
    real = problems._ball_scale

    def wrong(v, lower, upper, radius):
        est = real(v, lower, upper, radius)
        return None if est is None else estimate(est)

    monkeypatch.setattr(problems, "_ball_scale", wrong)
    for v, lower, upper, max_scale in projection_draws(12, 400):
        expect = _bisect_in_ball(v, lower, upper, 1.0, max_scale)
        got = _clip_in_ball(v, lower, upper, 1.0, max_scale)
        assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("d", [2, 5, 17])
@pytest.mark.parametrize("build", [build_logistic_problem, build_hinge_problem])
def test_reference_bit_equal_to_full_bisection(monkeypatch, build, d):
    binding = 0
    for margin in (0.3, 0.5, 1.0, 2.0):
        for seed in (1, 2, 3):
            p = build(generate_dataset(100, d, seed=seed), margin, margin)
            fast = reference_optimum(p)
            with monkeypatch.context() as m:
                m.setattr(problems, "_clip_in_ball", _bisect_in_ball)
                slow = reference_optimum(p)
            assert fast.f_star == slow.f_star
            assert fast.x_star.tobytes() == slow.x_star.tobytes()
            assert fast.residual == slow.residual
            binding += bool(np.linalg.norm(fast.x_star) > 1.0 - 1e-9)
    assert binding >= 3


def test_linear_min_survives_a_subnormal_coefficient():
    # |c_0| = 1e-320 put its face scale beyond the floats: the scale
    # overflowed to inf and the bisection stopped at 0, reporting 0.0
    lower, upper = -np.ones(5), np.ones(5)
    c = np.array([1e-320, -0.5, 0.3, 0.2, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = problems._linear_min_box_ball(c, lower, upper, 1.0)
        c[0] = 0.0
        zero = problems._linear_min_box_ball(c, lower, upper, 1.0)
    assert zero == pytest.approx(-math.sqrt(0.39))
    assert tiny == pytest.approx(zero, abs=1e-12)


# -- reference optimum --------------------------------------------------------

def test_reference_linear_objective_box_corner():
    c = np.array([0.3, -0.2, 0.5])
    oracle = lambda x: (float(c @ x), c)
    p = make_custom_problem(
        [oracle], box_constraints(np.full(3, -0.1), np.full(3, 0.1)),
        lipschitz=float(np.linalg.norm(c)), radius=1.0, dim=3,
        box=(np.full(3, -0.1), np.full(3, 0.1)))
    ref = reference_optimum(p, iterations=20_000)
    assert ref.f_star == pytest.approx(-0.1 * np.abs(c).sum(), abs=1e-9)
    assert_allclose(ref.x_star, -0.1 * np.sign(c), atol=1e-9)


def test_reference_quadratic_objective_origin():
    oracle = lambda x: (float(x @ x), 2 * x)
    p = make_custom_problem(
        [oracle], box_constraints(np.full(2, -0.1), np.full(2, 0.1)),
        lipschitz=2.0, radius=1.0, dim=2,
        box=(np.full(2, -0.1), np.full(2, 0.1)))
    ref = reference_optimum(p, iterations=20_000)
    assert ref.f_star == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("margin", [0.1, 1.0])
@pytest.mark.parametrize("build", [build_logistic_problem, build_hinge_problem])
def test_reference_agrees_with_grid_search_d2(build, margin):
    # at margin 1.0 the box holds the unit disk, so the ball is active; the
    # spacing scales with the margin so the grid stays at 201 x 201 points
    data = generate_dataset(50, 2, seed=1)
    p = build(data, margin, margin)
    solver = reference_optimum(p, iterations=100_000)
    resolution = margin / 100
    grid_f_star = grid_best_value(p, resolution)
    # every grid point is feasible, so none may beat the exact solve
    assert solver.f_star <= grid_f_star + 1e-12
    assert grid_f_star - solver.f_star <= resolution / 10


def grid_best_value(p, resolution):
    """The least mean objective over the points of a grid on the box
    that lie in the ball: a brute-force optimum for d <= 2."""
    lower, upper = p.box
    axes = [np.arange(lower[k], upper[k] + resolution / 2, resolution)
            for k in range(p.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    points = points[np.linalg.norm(points, axis=1) <= p.radius]
    return float(np.min(p.mean_objective_many(points)))


def test_reference_best_value_monotone_in_iterations(paper_logistic):
    values = [reference_optimum(paper_logistic, iterations=it).f_star
              for it in (100, 1000, 5000)]
    assert values[0] >= values[1] >= values[2]


def test_reference_feasible_and_certified(paper_reference, paper_logistic):
    x = paper_reference.x_star
    assert np.max(paper_logistic.constraint_values(x)) <= 1e-8
    assert np.linalg.norm(x) <= paper_logistic.radius + 1e-8
    assert paper_reference.residual <= 1e-4
    assert paper_reference.method == "projected-gradient"


def test_reference_residual_tol_enforced(paper_logistic):
    with pytest.raises(ReferenceError):
        reference_optimum(paper_logistic, iterations=1, residual_tol=1e-10)


def test_reference_solve_does_not_import_scipy_optimize():
    # importing scipy.optimize raises a fresh process's peak RSS by about
    # 23 MB, so the reference solve stays within numpy
    code = ("import sys\n"
            "from pdnet import problems as pr\n"
            "data = pr.generate_dataset(100, 5, seed=1)\n"
            "pr.reference_optimum(pr.build_logistic_problem(data, 1.0, 1.0))\n"
            "print('scipy.optimize' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(problems.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_does_not_load_scipy_special():
    # scipy.special raised a fresh process's peak RSS by about 6 MB for
    # one function; the logistic slope is numpy's exp
    code = ("import sys\n"
            "import pdnet\n"
            "print('scipy.special' in sys.modules)\n"
            "import pdnet.cli\n"
            "print('scipy.special' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(problems.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_reference_requires_box():
    p = make_custom_problem(
        [lambda x: (float(x[0]), np.array([1.0]))],
        [lambda x: (float(x[0] - 0.5), np.array([1.0]))],
        lipschitz=1.0, radius=1.0, dim=1)
    with pytest.raises(ProblemError):
        reference_optimum(p, iterations=10)


def test_reference_json_roundtrip(paper_reference):
    d = paper_reference.to_json_dict()
    back = problems.ReferenceSolution.from_json_dict(d)
    assert back.f_star == paper_reference.f_star
    assert np.array_equal(back.x_star, paper_reference.x_star)
