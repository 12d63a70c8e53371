"""Shared fixtures: canonical problems, references, graphs.

Reference solves are the expensive shared computation, so they are
session-scoped and reused across test modules.
"""

from __future__ import annotations

import numpy as np
import pytest

from pdnet import graphs, problems


def make_custom_problem(objectives, constraints, lipschitz, radius,
                        dim, box=None):
    """Assemble a ProblemSpec from bare oracles (loop evaluation paths)."""
    return problems.ProblemSpec.from_oracles(
        objectives, constraints, dim=dim, lipschitz=lipschitz, radius=radius,
        box=box)


def toy_problem():
    """d=1, one agent, f(x) = x, g(x) = x - 1/2, L = 1, R = 1."""
    f = lambda x: (float(x[0]), np.ones(1))
    g = lambda x: (float(x[0] - 0.5), np.ones(1))
    return make_custom_problem([f], [g], lipschitz=1.0, radius=1.0, dim=1)


def box_constraints(lower, upper):
    """Oracles for lower_k - x_k <= 0 (k < d) followed by x_k - upper_k <= 0."""
    d = len(lower)

    def unit(k, sign):
        e = np.zeros(d)
        e[k] = sign
        return e

    return tuple([lambda x, k=k, e=unit(k, -1.0): (float(lower[k] - x[k]), e)
                  for k in range(d)]
                 + [lambda x, k=k, e=unit(k, 1.0): (float(x[k] - upper[k]), e)
                    for k in range(d)])


def constraint_grads(p, x):
    """grad g_k(x) of problem ``p`` as row k, for every constraint k."""
    m = p.n_constraints
    return p.agent_constraint_rows(np.tile(x, (m, 1)), np.arange(m))


@pytest.fixture(scope="session")
def paper_dataset():
    return problems.generate_dataset(100, 5, seed=1)


@pytest.fixture(scope="session")
def paper_logistic(paper_dataset):
    """The default experiment instance: logistic, l = u = 0.1."""
    return problems.build_logistic_problem(paper_dataset, 0.1, 0.1)


@pytest.fixture(scope="session")
def paper_hinge(paper_dataset):
    return problems.build_hinge_problem(paper_dataset, 0.1, 0.1)


@pytest.fixture(scope="session")
def paper_reference(paper_logistic):
    return problems.reference_optimum(paper_logistic, iterations=200_000,
                                      residual_tol=1e-4)


@pytest.fixture(scope="session")
def binding_logistic(paper_dataset):
    """The binding instance: every box face is active at l = u = 0.001."""
    return problems.build_logistic_problem(paper_dataset, 0.001, 0.001)


@pytest.fixture(scope="session")
def binding_reference(binding_logistic):
    return problems.reference_optimum(binding_logistic, iterations=200_000)


@pytest.fixture(scope="session")
def ws_graph():
    return graphs.generate_watts_strogatz(100, 20, 0.02, seed=7)


@pytest.fixture(scope="session")
def ws_matrix(ws_graph):
    return graphs.lazy_metropolis(ws_graph)


@pytest.fixture()
def sigma2_solves(monkeypatch):
    """The sizes of the matrices whose sigma_2 is solved while the test
    runs: ``graphs._second_singular_value`` is wrapped to count its calls."""
    sizes = []
    solve = graphs._second_singular_value

    def counted(w):
        sizes.append(w.n)
        return solve(w)

    monkeypatch.setattr(graphs, "_second_singular_value", counted)
    return sizes
