"""Graph generators, weight matrices, and spectral utilities."""

import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdnet import draws, graphs
from pdnet.graphs import (
    ConnectivityError,
    ConsensusMatrix,
    GraphTopology,
    GraphError,
    WeightMatrixError,
    generate_barbell,
    generate_erdos_renyi,
    generate_lattice8,
    generate_watts_strogatz,
    laplacian_weights,
    lazy_metropolis,
    spectral_gap,
)


def bfs_connected(n, edges):
    """Independent breadth-first connectivity oracle."""
    adj = {i: [] for i in range(n)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    queue = [0]
    seen[0] = True
    while queue:
        nxt = []
        for u in queue:
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    nxt.append(v)
        queue = nxt
    return all(seen)


def candidate_list_attempt(n, k, theta, s):
    """Independent oracle: one seed's rewiring, written with an O(n)
    candidate list per rewire and one ``Generator`` call per draw."""
    rng = np.random.default_rng(s)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for off in range(1, k // 2 + 1):
            adj[i].add((i + off) % n)
            adj[(i + off) % n].add(i)
    for i in range(n):
        for off in range(1, k // 2 + 1):
            j = (i + off) % n
            if rng.random() >= theta:
                continue
            candidates = [v for v in range(n) if v != i and v not in adj[i]]
            if not candidates:
                continue
            new_j = candidates[rng.integers(len(candidates))]
            adj[i].discard(j)
            adj[j].discard(i)
            adj[i].add(new_j)
            adj[new_j].add(i)
    return {(i, j) for i in range(n) for j in adj[i] if i < j}


def candidate_list_watts_strogatz(n, k, theta, seed):
    """The oracle reseeded like the generator until connected."""
    for s in range(seed, seed + graphs.MAX_CONNECTIVITY_RETRIES):
        edges = candidate_list_attempt(n, k, theta, s)
        if bfs_connected(n, edges):
            return edges
    raise AssertionError("oracle found no connected graph")


def assert_edge_array_is(g, edges):
    """``g.edge_array`` holds exactly the (i, j), i < j, pairs ``edges``
    in ascending order, byte for byte."""
    expected = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    assert g.edge_array.shape == expected.shape
    assert g.edge_array.tobytes() == expected.tobytes()


def edge_set(g):
    """The edges of ``g`` as a set of (i, j) tuples, i < j."""
    return set(map(tuple, g.edge_array.tolist()))


def as_dense(w):
    """The n x n array of ``w``'s entries."""
    return w.csr.toarray()


def complete_edges(nodes):
    nodes = list(nodes)
    return {(min(a, b), max(a, b))
            for i, a in enumerate(nodes) for b in nodes[i + 1:]}


def dense_adjacency(g):
    a = np.zeros((g.n, g.n))
    i, j = g.edge_array.T
    a[i, j] = 1.0
    a[j, i] = 1.0
    return a


def allowed_mask(g):
    """1 on the graph edges and the diagonal, 0 elsewhere."""
    return dense_adjacency(g) + np.eye(g.n)


def complete_diagonal(w):
    """Set each w[i, i] to 1 minus the row's stored entries, summed as
    the first plus numpy's pairwise sum of the rest: the stored columns
    are the nonzeros plus column i, ascending, with w[i, i] = 0."""
    for i in range(len(w)):
        w[i, i] = 0.0
        vals = w[i, np.union1d(np.flatnonzero(w[i]), [i])]
        w[i, i] = 1.0 - (vals[0] + np.add.reduce(vals[1:]))
    return w


def dense_lazy_metropolis(g):
    """Independent oracle: the lazy Metropolis weights as a dense n x n
    array, with the diagonal completed by ``complete_diagonal``."""
    i, j = g.edge_array.T
    sizes = g.degrees + 1
    v = 1.0 / (2.0 * np.maximum(sizes[i], sizes[j]))
    w = np.zeros((g.n, g.n))
    w[i, j] = v
    w[j, i] = v
    return complete_diagonal(w)


def dense_laplacian_closed_form(g):
    """Independent oracle: I - (D - A) / (d_max + 1) as a dense n x n
    array, with the diagonal completed by ``complete_diagonal``."""
    return complete_diagonal(dense_adjacency(g) * (1.0 / (g.degrees.max() + 1)))


def dense_laplacian_weights(g):
    """Textbook reference: the normalized-Laplacian weights computed on
    dense n x n arrays, W = I - d/(d+1) Lap for a d-regular graph and
    I - D^{1/2} Lap D^{1/2} / (d_max + 1) otherwise."""
    n = g.n
    a = dense_adjacency(g)
    degrees = g.degrees.astype(float)
    d_inv_sqrt = 1.0 / np.sqrt(degrees)
    lap = np.eye(n) - (d_inv_sqrt[:, None] * a * d_inv_sqrt[None, :])
    if np.all(degrees == degrees[0]):
        d = degrees[0]
        return np.eye(n) - (d / (d + 1.0)) * lap
    d_sqrt = np.sqrt(degrees)
    return np.eye(n) - (d_sqrt[:, None] * lap * d_sqrt[None, :]) / (degrees.max() + 1.0)


# -- generators --------------------------------------------------------------

def test_watts_strogatz_zero_rewiring_is_ring():
    g = generate_watts_strogatz(6, 2, 0.0)
    ring = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)}
    assert edge_set(g) == ring
    assert g.degrees.tolist() == [2] * 6


def test_watts_strogatz_preserves_edge_count():
    g = generate_watts_strogatz(100, 20, 0.02, seed=7)
    assert len(g.edge_array) == 100 * 20 // 2
    assert bfs_connected(g.n, g.edge_array.tolist())


@pytest.mark.parametrize("n,k", [(4, 4), (5, 6), (10, 3), (10, 0)])
def test_watts_strogatz_invalid_parameters(n, k):
    with pytest.raises(GraphError):
        generate_watts_strogatz(n, k, 0.1)


@pytest.mark.parametrize("theta", [0.0, 0.02, 0.5, 1.0])
@pytest.mark.parametrize("n,k", [(3, 2), (5, 4), (21, 20), (12, 4), (60, 6),
                                 (150, 20)])
def test_watts_strogatz_matches_candidate_list_oracle(n, k, theta):
    # same RNG calls in the same order, so the same graph for every seed
    for seed in (0, 1, 7):
        g = generate_watts_strogatz(n, k, theta, seed=seed)
        edges = candidate_list_watts_strogatz(n, k, theta, seed)
        assert_edge_array_is(g, edges)
        ends = np.array(sorted(edges)).ravel()
        assert np.array_equal(g.degrees, np.bincount(ends, minlength=n))


@pytest.mark.parametrize("n,k,theta,seed,retried", [
    (2000, 20, 0.02, 7, False),
    (2000, 20, 0.02, 8, False),
    # every coin hits, so the integer draws exhaust the first bulk draw
    (300, 6, 1.0, 3, False),
    # seeds 7 and 8 give disconnected graphs, seed 9 a connected one
    (40, 2, 0.3, 7, True),
    (40, 2, 1.0, 4, True),
])
def test_watts_strogatz_matches_oracle_at_scale_refill_and_retry(
        n, k, theta, seed, retried):
    g = generate_watts_strogatz(n, k, theta, seed=seed)
    assert_edge_array_is(g, candidate_list_watts_strogatz(n, k, theta, seed))
    first = candidate_list_attempt(n, k, theta, seed)
    assert bfs_connected(n, first) is not retried


@pytest.mark.parametrize("seed", [0, 3, 2 ** 40])
def test_rewire_coins_are_generator_random(seed):
    raw = np.random.default_rng(seed).bit_generator.random_raw(1000)
    expected = np.random.default_rng(seed).random(1000)
    assert draws.coins(raw).tobytes() == expected.tobytes()


#: bound 1 draws nothing; at 2^31 + 1 Lemire rejects about half its draws;
#: 2^32 takes a 32-bit half as it is
STREAM_BOUNDS = (2, 1, 3, 2 ** 31 + 1, 7, 2 ** 31 + 1, 1000, 1,
                 3 * 2 ** 30, 2 ** 32 - 1, 2 ** 32, 1999)


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("seed", [0, 5, 2 ** 40])
def test_rewire_stream_replays_generator_calls(seed, theta):
    # at theta = 1 the integer draws run the stream past its first bulk
    # draw of one output per coin, so it refills
    count = 600
    rng = np.random.default_rng(seed)
    stream = draws.RewireStream(seed, count, theta)
    hits = 0
    for e in range(count):
        if rng.random() >= theta:
            continue
        assert stream.next_hit() == e
        bound = STREAM_BOUNDS[hits % len(STREAM_BOUNDS)]
        assert stream.integers(bound) == rng.integers(bound)
        hits += 1
    assert stream.next_hit() is None
    if theta == 1.0:
        assert hits == count


def test_watts_strogatz_deterministic():
    a = generate_watts_strogatz(40, 6, 0.3, seed=11)
    b = generate_watts_strogatz(40, 6, 0.3, seed=11)
    assert edge_set(a) == edge_set(b)


def test_erdos_renyi_p_one_is_complete():
    g = generate_erdos_renyi(5, 1.0, seed=123)
    assert edge_set(g) == complete_edges(range(5))


def test_erdos_renyi_edge_count_within_binomial_band():
    g = generate_erdos_renyi(100, 0.06, seed=3)
    pairs = 100 * 99 // 2
    mean = 0.06 * pairs
    sigma = np.sqrt(pairs * 0.06 * 0.94)
    assert abs(len(g.edge_array) - mean) < 4 * sigma
    assert bfs_connected(g.n, g.edge_array.tolist())


def test_erdos_renyi_two_nodes():
    g = generate_erdos_renyi(2, 0.5, seed=0)
    assert edge_set(g) == {(0, 1)}


def test_erdos_renyi_invalid_probability():
    with pytest.raises(GraphError):
        generate_erdos_renyi(5, 0.0)


def test_lattice8_2x2_is_complete():
    g = generate_lattice8(2, 2)
    assert edge_set(g) == complete_edges(range(4))


def test_lattice8_3x3_degrees():
    g = generate_lattice8(3, 3)
    # corners see 3 Moore neighbors, edge-centers 5, the center 8
    assert g.degrees.tolist() == [3, 5, 3, 5, 8, 5, 3, 5, 3]


def test_lattice8_10x10_connected():
    g = generate_lattice8(10, 10)
    assert g.n == 100
    assert bfs_connected(g.n, g.edge_array.tolist())


def loop_lattice8_edges(rows, cols):
    """Oracle: each cell's forward Moore links, cell by cell."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    edges.append((u, rr * cols + cc))
    return edges


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 7), (7, 2), (3, 3),
                                       (5, 6), (13, 4)])
def test_lattice8_matches_loop_oracle(rows, cols):
    assert_edge_array_is(generate_lattice8(rows, cols),
                         loop_lattice8_edges(rows, cols))


def test_lattice8_rejects_degenerate():
    with pytest.raises(GraphError):
        generate_lattice8(1, 5)


def test_barbell_single_bridge_small():
    g = generate_barbell(4, 1)
    assert edge_set(g) == {(0, 1), (2, 3), (0, 2)}
    assert bfs_connected(g.n, g.edge_array.tolist())


def test_barbell_edge_count():
    g = generate_barbell(100, 1)
    assert len(g.edge_array) == 2 * (50 * 49 // 2) + 1


def loop_barbell_edges(n, bridge_count):
    """Oracle: both cliques pair by pair, then the bridges."""
    half = n // 2
    edges = []
    for base in (0, half):
        for i in range(half):
            for j in range(i + 1, half):
                edges.append((base + i, base + j))
    for b in range(bridge_count):
        edges.append((b, half + b))
    return edges


@pytest.mark.parametrize("n,b", [(4, 1), (4, 2), (10, 3), (100, 1),
                                 (100, 50)])
def test_barbell_matches_loop_oracle(n, b):
    assert_edge_array_is(generate_barbell(n, b), loop_barbell_edges(n, b))


@pytest.mark.parametrize("n,b", [(6, 4), (7, 1), (2, 1), (6, 0)])
def test_barbell_invalid(n, b):
    with pytest.raises(GraphError):
        generate_barbell(n, b)


# each generator checks its size before it allocates or loops: without the
# check, barbell and lattice8 at these sizes grow or loop without end
@pytest.mark.parametrize("make", [
    lambda: generate_watts_strogatz(10 ** 20, 20, 0.02),
    lambda: generate_erdos_renyi(10 ** 20, 0.5),
    lambda: generate_erdos_renyi(2 ** 32, 0.5),
    lambda: generate_lattice8(10 ** 10, 10 ** 10),
    lambda: generate_barbell(10 ** 20),
], ids=["ws", "er", "er-pairs", "lattice8", "barbell"])
def test_generators_reject_sizes_no_array_can_hold(make):
    with pytest.raises(GraphError, match="numpy array"):
        make()


def test_topology_rejects_disconnected():
    # the two triangles have E >= n - 1, so only the component search
    # can tell
    for n, edges in ((4, [(0, 1), (2, 3)]),
                     (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])):
        with pytest.raises(ConnectivityError, match="graph is disconnected"):
            GraphTopology.from_edges(n, edges)


def test_topology_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop at node 0"):
        GraphTopology.from_edges(3, [(0, 0), (0, 1), (1, 2)])


@pytest.mark.parametrize("edge,shown", [((1, 3), "(1, 3)"), ((3, 1), "(1, 3)"),
                                        ((-1, 2), "(-1, 2)")])
def test_topology_rejects_out_of_range_edge(edge, shown):
    with pytest.raises(GraphError,
                       match=re.escape(f"edge {shown} out of range for n=3")):
        GraphTopology.from_edges(3, [(0, 1), (1, 2), edge])


def test_topology_single_node_and_no_edges():
    g = GraphTopology.from_edges(1, [])
    assert g.degrees.tolist() == [0] and edge_set(g) == set()
    assert g.edge_array.shape == (0, 2)
    with pytest.raises(GraphError, match="node count 0 is not an integer >= 1"):
        GraphTopology.from_edges(0, [])
    with pytest.raises(ConnectivityError):
        GraphTopology.from_edges(2, [])


def test_topology_canonical_edge_array():
    g = GraphTopology.from_edges(4, [(3, 2), (1, 0), (2, 1), (0, 1), (2, 3)])
    assert g.edge_array.tolist() == [[0, 1], [1, 2], [2, 3]]
    assert g.degrees.tolist() == [1, 2, 2, 1]
    assert g.degrees.dtype == np.int64
    with pytest.raises(ValueError):
        g.edge_array[0, 0] = 5
    with pytest.raises(ValueError):
        g.degrees[0] = 5


@pytest.mark.parametrize("endpoint,shown", [(1.5, "1.5"), (np.nan, "nan"),
                                            (np.inf, "inf"), (-np.inf, "-inf")])
def test_topology_rejects_endpoints_that_are_not_whole(endpoint, shown):
    # an int cast would read 1.5 as 1, and fail on NaN with numpy's error
    with pytest.raises(GraphError, match=re.escape(
            f"edge endpoint {shown} is not a whole number")):
        GraphTopology.from_edges(3, [(0, endpoint), (1, 2)])
    with pytest.raises(GraphError, match="must be whole numbers, got object"):
        GraphTopology.from_edges(3, [(0, None), (1, 2)])


@pytest.mark.parametrize("endpoint", [True, False, np.True_])
def test_topology_rejects_a_bool_endpoint_among_ints(endpoint):
    # numpy reads [(True, 2), (0, 1)] as int64, which would make True node 1
    edges = [(endpoint, 2), (0, 1), (1, 2)]
    assert np.asarray(edges).dtype.kind == "i"
    with pytest.raises(GraphError, match=re.escape(
            f"edge endpoint {endpoint!r} is a bool, not a node")):
        GraphTopology.from_edges(3, edges)
    with pytest.raises(GraphError, match="whole numbers, got bool"):
        GraphTopology.from_edges(3, np.array([(True, False)]))


def test_topology_takes_whole_valued_endpoints():
    g = GraphTopology.from_edges(np.int64(3), np.array([[1.0, 0.0], [1.0, 2.0]]))
    assert g.edge_array.tolist() == [[0, 1], [1, 2]]
    same = GraphTopology.from_edges(3, [(0, 1), (1, 2)])
    assert g.to_edgelist_text() == same.to_edgelist_text()


@pytest.mark.parametrize("n", [2 ** 40, 10 ** 20])
def test_topology_with_too_few_edges_for_n_allocates_nothing(n):
    # n - 1 edges at least join n nodes, so a huge n fails before any
    # array of n entries is made, or an n * n index code overflows
    with pytest.raises(ConnectivityError, match="graph is disconnected"):
        GraphTopology.from_edges(n, [(0, 1)])


@pytest.mark.parametrize("n", [2.0, 1.5, True, np.nan])
def test_topology_node_count_must_be_an_integer(n):
    with pytest.raises(GraphError, match=f"node count {n!r} is not an integer"):
        GraphTopology.from_edges(n, [(0, 1)])


@pytest.mark.parametrize("make", [
    lambda: generate_barbell(6.0),
    lambda: generate_barbell(6, True),
    lambda: generate_watts_strogatz(10, 4.0, 0.1),
    lambda: generate_watts_strogatz(10.0, 4, 0.1),
    lambda: generate_watts_strogatz(10, 4, 0.1, seed=1.5),
    lambda: generate_erdos_renyi(True, 0.5),
    lambda: generate_erdos_renyi(6, 0.5, seed=np.nan),
    lambda: generate_lattice8(3, 2.5),
], ids=["barbell-n", "barbell-bridges", "ws-k", "ws-n", "ws-seed", "er-n",
        "er-seed", "lattice8-cols"])
def test_generators_take_integers_only(make):
    with pytest.raises(GraphError, match="is not an integer"):
        make()


def test_generators_take_numpy_integers():
    for make in (lambda i: generate_watts_strogatz(i(20), i(4), 0.2, seed=i(3)),
                 lambda i: generate_erdos_renyi(i(12), 0.3, seed=i(2)),
                 lambda i: generate_lattice8(i(3), i(4)),
                 lambda i: generate_barbell(i(8), i(2))):
        for kind in (np.int64, np.uint16):
            assert np.array_equal(make(kind).edge_array, make(int).edge_array)


@pytest.mark.parametrize("order", ["ascending", "random"])
def test_topology_long_path_is_connected_and_fast(order):
    n = 100_000
    nodes = np.arange(n)
    if order == "random":
        nodes = np.random.default_rng(0).permutation(n)
    path = np.stack([nodes[:-1], nodes[1:]], axis=1)
    start = time.perf_counter()
    g = GraphTopology.from_edges(n, path)
    assert time.perf_counter() - start < 2.0
    assert len(g.edge_array) == n - 1
    assert g.degrees.max() == 2
    # cut in the middle, plus a chord so that E = n - 1 still
    cut = np.delete(path, n // 2, axis=0)
    chord = [[nodes[0], nodes[2]]]
    with pytest.raises(ConnectivityError):
        GraphTopology.from_edges(n, np.concatenate([cut, chord]))


# -- weight matrices ---------------------------------------------------------

def test_lazy_metropolis_two_node_path():
    g = GraphTopology.from_edges(2, [(0, 1)])
    w = lazy_metropolis(g)
    assert_allclose(as_dense(w), [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)


def test_lazy_metropolis_complete_graph():
    for n in (3, 5, 8):
        g = GraphTopology.from_edges(n, complete_edges(range(n)))
        w = lazy_metropolis(g)
        off = 1.0 / (2 * n)
        expected = np.full((n, n), off)
        np.fill_diagonal(expected, (n + 1) / (2 * n))
        assert_allclose(as_dense(w), expected, atol=1e-15)
        assert_allclose(w.sigma2, 0.5, atol=1e-12)
        assert_allclose(spectral_gap(w), 0.5, atol=1e-12)


def _random_graph(family, rng):
    if family == "ws":
        n = int(rng.integers(8, 120))
        k = 2 * int(rng.integers(1, min(8, (n - 1) // 2) + 1))
        return generate_watts_strogatz(n, k, float(rng.random() * 0.5),
                                       seed=int(rng.integers(1 << 30)))
    if family == "er":
        # p at or above the connectivity threshold ln(n) / n, where a draw
        # is connected with probability about 1/e or more, so the 100
        # reseeds cannot all fail in practice
        n = int(rng.integers(5, 120))
        p = max(0.1 + 0.4 * rng.random(), math.log(n) / n)
        return generate_erdos_renyi(n, p, seed=int(rng.integers(1 << 30)))
    if family == "lattice":
        return generate_lattice8(int(rng.integers(2, 12)), int(rng.integers(2, 12)))
    n = 2 * int(rng.integers(2, 60))
    return generate_barbell(n, int(rng.integers(1, n // 2 + 1)))


#: fixed per-family seeds: ``hash(str)`` changes with PYTHONHASHSEED
FAMILY_SEEDS = {"ws": 1, "er": 2, "lattice": 3, "barbell": 4}


@pytest.mark.parametrize("family", ["ws", "er", "lattice", "barbell"])
def test_mixing_matrix_invariants(family):
    rng = np.random.default_rng(FAMILY_SEEDS[family])
    for _ in range(8):
        g = _random_graph(family, rng)
        allowed = allowed_mask(g)
        for w in (lazy_metropolis(g), laplacian_weights(g)):
            entries = as_dense(w)
            assert np.all(entries >= 0)
            assert np.max(np.abs(entries.sum(axis=0) - 1)) <= 1e-12
            assert np.max(np.abs(entries.sum(axis=1) - 1)) <= 1e-12
            assert not np.any((entries != 0) & (allowed == 0))
            assert_allclose(entries, entries.T, atol=1e-15)
        wm = lazy_metropolis(g)
        diag = np.diag(as_dense(wm))
        assert np.all(diag >= (as_dense(wm).sum(axis=1) - diag) - 1e-12)
        assert 1.0 / (1.0 - wm.sigma2) <= 71.0 * g.n ** 2


#: graphs for the dense-oracle comparison: each family on both sides of
#: DENSE_SIGMA2_MAX_N, with regular (ring, complete, theta = 0) and
#: irregular degrees
ORACLE_GRAPHS = {
    "ws100": lambda: generate_watts_strogatz(100, 20, 0.02, seed=7),
    "ws-ring120": lambda: generate_watts_strogatz(120, 6, 0.0, seed=1),
    "ws600": lambda: generate_watts_strogatz(600, 20, 0.02, seed=7),
    "ws-ring600": lambda: generate_watts_strogatz(600, 4, 0.0, seed=1),
    "er150": lambda: generate_erdos_renyi(150, 0.08, seed=2),
    "er-complete40": lambda: generate_erdos_renyi(40, 1.0, seed=2),
    "er700": lambda: generate_erdos_renyi(700, 0.02, seed=5),
    "lattice10x10": lambda: generate_lattice8(10, 10),
    "lattice24x25": lambda: generate_lattice8(24, 25),
    "barbell100": lambda: generate_barbell(100, 1),
    "barbell600": lambda: generate_barbell(600, 3),
}


@pytest.mark.parametrize("scheme", ["lazy_metropolis", "laplacian_weights"])
@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_weights_match_dense_oracle_bit_for_bit(name, scheme):
    g = ORACLE_GRAPHS[name]()
    dense = {"lazy_metropolis": dense_lazy_metropolis,
             "laplacian_weights": dense_laplacian_closed_form}[scheme](g)
    w = getattr(graphs, scheme)(g)
    # the CSR of the dense oracle as np.nonzero lists it: row-major order,
    # exact zeros dropped, int32 indices
    rows, cols = np.nonzero(dense)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=g.n))])
    assert w.csr.indptr.dtype == w.csr.indices.dtype == np.int32
    assert np.array_equal(w.csr.indptr, indptr)
    assert np.array_equal(w.csr.indices, cols)
    assert w.csr.data.tobytes() == dense[rows, cols].tobytes()
    oracle = ConsensusMatrix.from_entries(dense, graph=g)
    assert (w.sigma2, w.sigma2_method) == (oracle.sigma2, oracle.sigma2_method)
    if g.n <= graphs.DENSE_SIGMA2_MAX_N:
        assert w.sigma2 == np.sort(np.abs(np.linalg.eigvalsh(dense)))[-2]
    assert np.array_equal(as_dense(w), dense)


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_laplacian_weights_match_the_normalized_formula(name):
    # the closed form and the textbook formula differ only in rounding:
    # same nonzero pattern, every entry within 2 eps
    g = ORACLE_GRAPHS[name]()
    textbook = dense_laplacian_weights(g)
    w = as_dense(laplacian_weights(g))
    assert np.array_equal(w != 0, textbook != 0)
    assert np.max(np.abs(w - textbook)) <= 2 * np.finfo(float).eps


def test_laplacian_weights_reject_an_isolated_node():
    with pytest.raises(GraphError, match="isolated node"):
        laplacian_weights(GraphTopology.from_edges(1, []))


def assert_no_dense_matrix(scheme):
    """``scheme`` on WS(5000, 20, 0.02) peaks below a quarter of n x n floats."""
    n = 5000
    g = generate_watts_strogatz(n, 20, 0.02, seed=7)
    tracemalloc.start()
    try:
        w = scheme(g)
        assert w.sigma2_method == "eigsh"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4


def test_lazy_metropolis_allocates_no_dense_matrix():
    assert_no_dense_matrix(lazy_metropolis)


def test_laplacian_weights_allocate_no_dense_matrix():
    assert_no_dense_matrix(laplacian_weights)


def test_entries_is_the_read_only_csr():
    # W is its three read-only CSR arrays; ``entries`` (what the
    # benchmark's tracer reads) gives their nnz without building ``csr``,
    # and ``csr`` is the scipy matrix over the same arrays
    w = lazy_metropolis(generate_watts_strogatz(30, 4, 0.2, seed=3))
    assert w.entries.nnz == w.nnz == 150 and "csr" not in vars(w)
    assert w.entries.nnz == w.csr.nnz
    for array, shared in ((w.data, w.csr.data), (w.indices, w.csr.indices),
                          (w.indptr, w.csr.indptr)):
        assert np.shares_memory(array, shared)
        for view in (array, shared):
            with pytest.raises(ValueError):
                view[0] = 0


def test_laplacian_weights_three_cycle():
    g = GraphTopology.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert_allclose(as_dense(laplacian_weights(g)), np.full((3, 3), 1 / 3),
                    atol=1e-15)


def test_laplacian_weights_k2():
    g = GraphTopology.from_edges(2, [(0, 1)])
    assert_allclose(as_dense(laplacian_weights(g)), np.full((2, 2), 0.5),
                    atol=1e-15)


def test_laplacian_weights_star_graph():
    g = GraphTopology.from_edges(5, [(0, i) for i in range(1, 5)])
    w = laplacian_weights(g)
    assert_allclose(as_dense(w).sum(axis=0), 1.0, atol=1e-12)
    assert_allclose(as_dense(w).sum(axis=1), 1.0, atol=1e-12)
    # every edge, hub-leaf included, carries 1 / (d_max + 1)
    assert as_dense(w)[0, 1] == 1 / 5


def test_spectral_gap_rank_one():
    w = ConsensusMatrix.from_entries(np.full((6, 6), 1 / 6))
    assert_allclose(spectral_gap(w), 1.0, atol=1e-12)


def test_barbell_gap_smaller_than_small_world():
    barbell = lazy_metropolis(generate_barbell(100, 1))
    ws = lazy_metropolis(generate_watts_strogatz(100, 20, 0.02, seed=7))
    assert spectral_gap(barbell) < spectral_gap(ws)


def test_sigma2_matches_svd_oracle():
    rng = np.random.default_rng(5)
    for _ in range(12):
        g = _random_graph(("ws", "er", "lattice", "barbell")[rng.integers(4)], rng)
        if g.n > 50:
            continue
        for w in (lazy_metropolis(g), laplacian_weights(g)):
            singular = np.linalg.svd(as_dense(w), compute_uv=False)
            assert abs(w.sigma2 - singular[1]) < 1e-8


def test_consensus_matrix_validation():
    with pytest.raises(WeightMatrixError):
        ConsensusMatrix.from_entries(np.array([[0.9, 0.2], [0.1, 0.8]]))
    g = GraphTopology.from_edges(3, [(0, 1), (1, 2)])
    off_structure = np.full((3, 3), 1 / 3)
    with pytest.raises(WeightMatrixError):
        ConsensusMatrix.from_entries(off_structure, graph=g)
    # NaN compares False with every tolerance, so it is rejected first
    with pytest.raises(WeightMatrixError, match="non-finite"):
        ConsensusMatrix.from_entries(np.array([[np.nan, 1.0], [1.0, np.nan]]))


@pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3,), ()])
def test_consensus_matrix_needs_a_nonempty_square(shape):
    # a 0 x 0 matrix reached a max over no sums, a numpy error
    with pytest.raises(WeightMatrixError, match="nonempty square matrix"):
        ConsensusMatrix.from_entries(np.ones(shape))


def test_consensus_matrix_immutable():
    w = lazy_metropolis(GraphTopology.from_edges(2, [(0, 1)]))
    with pytest.raises(ValueError):
        w.data[0] = 0.0
    with pytest.raises(ValueError):
        w.csr[0, 0] = 0.0


# -- serialization -----------------------------------------------------------

def test_edgelist_text_lists_n_then_each_edge():
    g = GraphTopology.from_edges(4, [(2, 1), (0, 3), (1, 2), (3, 1)])
    assert g.to_edgelist_text() == "4\n0 3\n1 2\n1 3\n"


def test_sigma2_method_by_size_and_symmetry(ws_matrix):
    assert ws_matrix.sigma2_method == "eigvalsh"
    asym = ConsensusMatrix.from_entries(
        np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]))
    assert asym.sigma2_method == "svd"
    assert_allclose(asym.sigma2, 0.5, atol=1e-12)
    # a skew part keeps row and column sums; up to 1e-12 it counts as symmetric
    skew = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    for scale, method in ((1e-13, "eigvalsh"), (1e-3, "svd")):
        w = ConsensusMatrix.from_entries(np.full((3, 3), 1 / 3) + scale * skew)
        assert w.sigma2_method == method


@pytest.fixture(scope="module")
def ws_past_threshold():
    return generate_watts_strogatz(graphs.DENSE_SIGMA2_MAX_N + 1, 20, 0.02, seed=3)


def test_sparse_sigma2_above_threshold(ws_past_threshold):
    w = lazy_metropolis(ws_past_threshold)
    assert w.sigma2_method == "eigsh"
    dense = np.sort(np.abs(np.linalg.eigvalsh(as_dense(w))))[-2]
    assert abs(w.sigma2 - dense) <= 1e-12
    again = graphs._second_singular_value(w)
    assert again == (w.sigma2, "eigsh")


def test_sigma2_is_solved_once_on_first_read(sigma2_solves, ws_graph):
    w = lazy_metropolis(ws_graph)
    assert sigma2_solves == []
    first = (w.sigma2, w.sigma2_method)
    assert (w.sigma2, w.sigma2_method) == first
    assert sigma2_solves == [ws_graph.n]
    with pytest.raises(AttributeError):
        w.sigma2 = 0.5


def test_sparse_sigma2_retries_lanczos_once(monkeypatch, ws_past_threshold):
    from scipy.sparse import linalg
    eigsh, calls = linalg.eigsh, []

    def first_fails(*args, **kwargs):
        calls.append(kwargs)
        if len(calls) == 1:
            raise linalg.ArpackNoConvergence("no convergence", [], [])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(linalg, "eigsh", first_fails)
    w = lazy_metropolis(ws_past_threshold)
    assert w.sigma2_method == "eigsh"
    assert calls[1]["ncv"] > 20 and calls[1]["maxiter"] > 10 * w.n
    dense = np.sort(np.abs(np.linalg.eigvalsh(as_dense(w))))[-2]
    assert abs(w.sigma2 - dense) <= 1e-12


def test_sparse_sigma2_never_expands_a_large_matrix(monkeypatch):
    # at n = 600 > DENSE_SIGMA2_MAX_N a Lanczos that fails twice is an
    # error naming n, not an eigvalsh of the dense n x n array
    from scipy import sparse
    from scipy.sparse import linalg
    calls = []

    def no_convergence(*args, **kwargs):
        calls.append(kwargs)
        raise linalg.ArpackNoConvergence("no convergence", [], [])

    def no_dense(self, *args, **kwargs):
        raise AssertionError("W was expanded to a dense n x n array")

    w = lazy_metropolis(generate_watts_strogatz(600, 20, 0.02, seed=3))
    monkeypatch.setattr(linalg, "eigsh", no_convergence)
    monkeypatch.setattr(sparse.csr_array, "toarray", no_dense)
    with pytest.raises(WeightMatrixError, match="600x600"):
        w.sigma2
    assert len(calls) == 2


def python_output(code, **env):
    """The stripped stdout of ``code`` run by a fresh interpreter on this
    checkout's pdnet, with ``env`` added to the environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(graphs.__file__).parents[1]),
               **env)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_canonical_run_does_not_import_sparse_linalg():
    # scipy.sparse.linalg (eigsh) adds about 8 MB of RSS, so it is imported
    # only for matrices above DENSE_SIGMA2_MAX_N
    code = ("import sys\n"
            "import pdnet\n"
            "data = pdnet.generate_dataset(100, 5, seed=1)\n"
            "p = pdnet.build_logistic_problem(data, 0.1, 0.1)\n"
            "w = pdnet.lazy_metropolis(\n"
            "    pdnet.generate_watts_strogatz(100, 20, 0.02, seed=1))\n"
            "pdnet.run(p, w, pdnet.RunConfig(iterations=50))\n"
            "print('scipy.sparse.linalg' in sys.modules)\n")
    assert python_output(code) == "False"


def test_reference_free_large_run_does_not_import_sparse_linalg():
    # past DENSE_SIGMA2_MAX_N only sigma2 needs eigsh, and a run without a
    # reference never reads sigma2
    code = ("import sys\n"
            "import pdnet\n"
            "data = pdnet.generate_dataset(600, 5, seed=1)\n"
            "p = pdnet.build_logistic_problem(data, 0.1, 0.1)\n"
            "w = pdnet.lazy_metropolis(\n"
            "    pdnet.generate_watts_strogatz(600, 20, 0.02, seed=7))\n"
            "trace = pdnet.run(p, w, pdnet.RunConfig(iterations=5))\n"
            "assert trace.records[-1].t == 5 and trace.aborted is None\n"
            "print('scipy.sparse.linalg' in sys.modules)\n")
    assert python_output(code) == "False"


#: prints the scipy.sparse modules loaded, one line
SPARSE_MODULES = ("print(sorted(m for m in sys.modules\n"
                  "             if m.startswith('scipy.sparse')))\n")


def test_import_and_canonical_runs_do_not_import_scipy_sparse(tmp_path):
    # pdnet mixes with scipy's kernel loaded from its file, so the ~21 MB
    # scipy.sparse package stays out: through the import, the README
    # quickstart's three runs with a reference, and a CLI sweep over eta
    code = ("import sys\n"
            "import pdnet, pdnet.cli\n"
            + SPARSE_MODULES +
            "data = pdnet.generate_dataset(100, 5, seed=1)\n"
            "p = pdnet.build_logistic_problem(data, 0.1, 0.1)\n"
            "ref = pdnet.reference_optimum(p, iterations=2000)\n"
            "w = pdnet.lazy_metropolis(\n"
            "    pdnet.generate_watts_strogatz(100, 20, 0.02, seed=7))\n"
            "for variant in ('deterministic', 'stochastic'):\n"
            "    cfg = pdnet.RunConfig(variant=variant, iterations=50)\n"
            "    pdnet.run(p, w, cfg, reference=ref)\n"
            "cfg = pdnet.RunConfig(variant='centralized_unregularized',\n"
            "                      iterations=50)\n"
            "pdnet.run_centralized_unregularized(p, cfg, reference=ref)\n"
            "assert w.sigma2_method == 'eigvalsh'\n"
            "assert pdnet.cli.main(['sweep', '--param', 'eta', '--values',\n"
            "    '0.5,1', '--threads', '1', '--set', 'problem.n=12',\n"
            "    '--set', 'graph.k=4', '--set', 'run.T=20',\n"
            "    '--set', 'reference.iterations=200']) == 0\n"
            + SPARSE_MODULES)
    lines = python_output(code, PDNET_OUTPUT_ROOT=str(tmp_path)).splitlines()
    assert lines[0] == lines[-1] == "[]"  # the sweep prints in between
    assert (tmp_path / "run" / "summary.csv").is_file()


def test_eigsh_sigma2_imports_scipy_sparse_when_read():
    code = ("import sys\n"
            "import pdnet\n"
            "w = pdnet.lazy_metropolis(\n"
            "    pdnet.generate_watts_strogatz(600, 20, 0.02, seed=7))\n"
            "print('scipy.sparse' in sys.modules)\n"
            "print(w.sigma2_method, 'scipy.sparse.linalg' in sys.modules)\n")
    assert python_output(code) == "False\neigsh True"


MIX_MATCHES_CSR = (
    "import numpy as np\n"
    "w = pdnet.lazy_metropolis(\n"
    "    pdnet.generate_watts_strogatz(2000, 20, 0.02, seed=7))\n"
    "z = np.random.default_rng(3).normal(size=(2000, 15))\n"
    "z[0, 0] = -0.0\n"
    "print(pdnet.engine._mix(w, z).tobytes() == (w.csr @ z).tobytes())\n")


@pytest.mark.parametrize("order", ["before", "after"])
def test_mix_matches_csr_with_scipy_sparse_imported(order):
    # the kernel loaded from its file coexists with the package's own copy
    imports = ["import scipy.sparse", "import pdnet"]
    if order == "after":
        imports.reverse()
    code = "\n".join(imports) + "\n" + MIX_MATCHES_CSR
    assert python_output(code) == "True"


def test_mix_kernel_falls_back_to_scipy_sparse():
    # with the extension's file not found, the package's copy of the kernel
    # is used, with the same bits
    code = ("import importlib.util, sys\n"
            "find_spec = importlib.util.find_spec\n"
            "importlib.util.find_spec = lambda name, *args: (\n"
            "    None if name == 'scipy' else find_spec(name, *args))\n"
            "import pdnet\n"
            "importlib.util.find_spec = find_spec\n"
            "kernel = sys.modules['scipy.sparse._sparsetools'].csr_matvecs\n"
            "print(pdnet.engine._csr_matvecs is kernel)\n"
            + MIX_MATCHES_CSR)
    assert python_output(code) == "True\nTrue"
