"""Golden traces: SHA-256 hashes of ``trace.csv`` for short canonical runs.

The hashes pin every number the engine and the metrics write, so a
refactor that claims unchanged behaviour must leave all of them alone. A
change that moves one lists it in CHANGES.md and says why. References are
built from literal optimal values, so the hashes pin the engine and the
metrics but not the reference solver.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdnet import engine as en
from pdnet.graphs import (GraphTopology, generate_barbell,
                          generate_watts_strogatz, lazy_metropolis)
from pdnet.problems import (ReferenceSolution, build_logistic_problem,
                            generate_dataset)

from conftest import make_custom_problem

#: f* of the default logistic and hinge instances (l = u = 0.1, n = 100)
LOGISTIC_F_STAR = 0.6630124544132566
HINGE_F_STAR = 0.9370804379939088
#: f* of the logistic instance at n = 600 (dataset seed 1, l = u = 0.1)
LOGISTIC_600_F_STAR = 0.680753392507929
#: f* of ``oracle_problem``, attained at (0.3, -0.1) where g_0 and g_1 bind
ORACLE_F_STAR = 0.4925

GOLDEN = {
    "hinge-barbell-deterministic":
        "928517372fcdb010eb22eb87852fdf6c93ef6ebe96078c05a6f4e7588ba7e39f",
    "hinge-barbell-stochastic-random-feasible":
        "1159eba353adb6008f4c5e963da5fc133db606ef17fc0520bfa5358757d47476",
    "logistic-centralized":
        "9a0fd86a140f58fdf4e8dbec66df338494c7856629596c3fc4c26d911de9b986",
    "logistic-ws-deterministic":
        "ca05d012b89fdfdfc043b116c69b586c9bd4a2c8bb191b46ecf92ba1cdca4cab",
    "logistic-ws-monitor-bounds":
        "db363f8c4ff1e98309b35b49c7947133d7549d8b989337e0ffd4220b36b0b1df",
    "logistic-ws600-deterministic":
        "a4e6ffd10c4739912aa029649b3c50442b070e38e3aefbda43c28424868e6ce2",
    "logistic-ws-stochastic":
        "2e85ffe21497b27ddf33cce0b796f82b7c3bdebb0be8492437af329f28607740",
    "oracle-ring-deterministic":
        "3db319e5351e86ddb71c5c28de5c1ed15669a3a1086320aa416e6bf3cd3001c4",
    "oracle-ring-stochastic":
        "fec4f29262cd4b604eaa9172722b505c52f4da20022eee6be03639a870dc450f",
}


def literal_reference(f_star, dim):
    return ReferenceSolution(f_star=f_star, x_star=np.zeros(dim),
                             method="literal", residual=0.0)


def oracle_problem():
    """4 agents, f_i(x) = ||x - c_i||^2 / 2 on d = 2, three linear constraints.

    The centers pull the mean optimum outside g_0 and g_1, so both bind;
    g_2 stays slack. Every oracle goes through the generic loop path.
    """
    centers = ((1.0, 0.8), (0.9, -0.2), (0.6, 1.0), (1.2, 0.3))

    def objective(c):
        c = np.array(c)
        return lambda x: (0.5 * float((x - c) @ (x - c)), x - c)

    constraints = [
        lambda x: (float(x[0] + x[1] - 0.2), np.array([1.0, 1.0])),
        lambda x: (float(x[0] - 0.3), np.array([1.0, 0.0])),
        lambda x: (float(-x[1] - 0.5), np.array([0.0, -1.0])),
    ]
    return make_custom_problem([objective(c) for c in centers], constraints,
                               lipschitz=2.5, radius=1.0, dim=2)


def run_case(name, logistic, hinge, ws_matrix):
    def cfg(**overrides):
        return en.RunConfig(**{"iterations": 1000, "eta": 1.0, "seed": 1,
                               **overrides})

    lref = literal_reference(LOGISTIC_F_STAR, logistic.dim)
    href = literal_reference(HINGE_F_STAR, hinge.dim)
    if name == "logistic-ws-deterministic":
        return en.run(logistic, ws_matrix, cfg(), reference=lref)
    if name == "logistic-ws-stochastic":
        return en.run(logistic, ws_matrix, cfg(variant="stochastic"),
                      reference=lref)
    if name == "logistic-centralized":
        return en.run(logistic, None, cfg(variant="centralized_unregularized"),
                      reference=lref)
    if name == "logistic-ws-monitor-bounds":
        return en.run(logistic, ws_matrix,
                      cfg(eta=0.5, iterations=600, record_every=20,
                          monitor_bounds=True), reference=lref)
    if name == "logistic-ws600-deterministic":
        # large enough for the pruned diameter scan, the Watts-Strogatz
        # rewiring path and sigma_2 by eigsh (n > DENSE_SIGMA2_MAX_N)
        big = build_logistic_problem(generate_dataset(600, 5, seed=1),
                                     0.1, 0.1)
        w = lazy_metropolis(generate_watts_strogatz(600, 20, 0.02, seed=7))
        return en.run(big, w, cfg(iterations=20, record_every=10),
                      reference=literal_reference(LOGISTIC_600_F_STAR,
                                                  big.dim))
    if name.startswith("hinge-barbell"):
        barbell = lazy_metropolis(generate_barbell(100, 1))
        if name == "hinge-barbell-deterministic":
            return en.run(hinge, barbell, cfg(iterations=500, record_every=7),
                          reference=href)
        return en.run(hinge, barbell,
                      cfg(variant="stochastic", iterations=500, seed=3,
                          init="random_feasible"), reference=href)
    p = oracle_problem()
    ring = lazy_metropolis(GraphTopology.from_edges(
        4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    variant = name.rsplit("-", 1)[1]
    return en.run(p, ring, cfg(variant=variant, seed=2),
                  reference=literal_reference(ORACLE_F_STAR, p.dim))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace(name, paper_logistic, paper_hinge, ws_matrix):
    trace = run_case(name, paper_logistic, paper_hinge, ws_matrix)
    assert trace.aborted is None
    assert trace.warnings == []
    digest = hashlib.sha256(trace.to_csv_text().encode()).hexdigest()
    assert digest == GOLDEN[name]


def test_golden_traces_under_two_blas_threads():
    # the same hashes when BLAS may split its products over two threads
    tests = Path(__file__).resolve().parent
    code = (
        "import hashlib\n"
        "from pdnet import graphs, problems\n"
        "import test_golden_traces as g\n"
        "data = problems.generate_dataset(100, 5, seed=1)\n"
        "logistic = problems.build_logistic_problem(data, 0.1, 0.1)\n"
        "hinge = problems.build_hinge_problem(data, 0.1, 0.1)\n"
        "ws = graphs.lazy_metropolis(\n"
        "    graphs.generate_watts_strogatz(100, 20, 0.02, seed=7))\n"
        "for name in sorted(g.GOLDEN):\n"
        "    trace = g.run_case(name, logistic, hinge, ws)\n"
        "    text = trace.to_csv_text().encode()\n"
        "    print(name, hashlib.sha256(text).hexdigest())\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               MKL_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"),
                                           str(tests)]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert dict(line.split() for line in proc.stdout.splitlines()) == GOLDEN
