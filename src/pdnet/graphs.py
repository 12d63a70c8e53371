"""Communication graphs and doubly stochastic mixing matrices.

Provides the four experiment graph families (Watts-Strogatz, Erdos-Renyi,
8-connected lattice, two-clique barbell), the lazy Metropolis and
normalized-Laplacian weight constructions, and spectral-gap utilities.
All generators are deterministic given (parameters, seed); connectivity of
random graphs is enforced by retrying with an incremented seed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .draws import RewireStream
from .problems import check_size, checked_int

#: Tolerance for row/column sums of a doubly stochastic matrix.
STOCHASTIC_TOL = 1e-12

#: Largest n whose sigma_2 comes from a dense eigendecomposition; larger
#: symmetric matrices use sparse Lanczos (eigsh). With one BLAS thread,
#: eigsh overtakes eigvalsh between n = 250 (barbell) and 450 (WS with
#: k = 20, lattice8) and near 900 for WS with k = 4.
DENSE_SIGMA2_MAX_N = 500

#: Maximum reseeding attempts before a random generator gives up on connectivity.
MAX_CONNECTIVITY_RETRIES = 100


class GraphError(ValueError):
    """Invalid graph parameters or construction failure."""


class ConnectivityError(GraphError):
    """The graph is disconnected, or a random generator found no connected one."""


class WeightMatrixError(ValueError):
    """A weight matrix violates the doubly stochastic contract."""


@dataclass(frozen=True, eq=False)
class GraphTopology:
    """Undirected connected graph on nodes 0..n-1.

    ``edge_array`` holds each edge once as a row (i, j) with i < j, rows in
    ascending order; the constructor accepts the edges as (i, j) rows in
    any order and orientation, with repeats. ``degrees`` holds each node's
    edge count (int64). Both arrays are read-only: instances are immutable
    after construction and safe to share across threads.
    """

    n: int
    edge_array: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        n = checked_int(self.n, "node count", 1, error=GraphError)
        raw = np.asarray(self.edge_array)
        if raw.dtype.kind not in "iuf":
            raise GraphError(f"edge endpoints must be whole numbers, got {raw.dtype}")
        if not isinstance(self.edge_array, np.ndarray):
            # numpy reads a bool next to ints as 0 or 1; only a list can mix them
            for v in np.asarray(self.edge_array, dtype=object).flat:
                if isinstance(v, (bool, np.bool_)):
                    raise GraphError(f"edge endpoint {v!r} is a bool, not a node")
        with np.errstate(invalid="ignore"):  # NaN, inf and overflow cast to junk
            pairs = raw.astype(np.int64)
        if (bad := raw[pairs != raw]).size:
            raise GraphError(f"edge endpoint {bad[0]} is not a whole number "
                             "in the int64 range")
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphError(f"edges must be (i, j) pairs, got shape {pairs.shape}")
        if len(pairs) < n - 1:  # before any array of n entries is made
            raise ConnectivityError("graph is disconnected")
        i = np.minimum(pairs[:, 0], pairs[:, 1])
        j = np.maximum(pairs[:, 0], pairs[:, 1])
        loops = np.flatnonzero(i == j)
        if loops.size:
            raise GraphError(f"self-loop at node {i[loops[0]]}")
        outside = np.flatnonzero((i < 0) | (j >= n))
        if outside.size:
            e = outside[0]
            raise GraphError(f"edge ({i[e]}, {j[e]}) out of range for n={n}")
        codes = np.sort(i * n + j)
        first = np.ones(codes.size, dtype=bool)
        first[1:] = codes[1:] != codes[:-1]
        codes = codes[first]
        edges = np.stack([codes // n, codes % n], axis=1)
        edges.setflags(write=False)
        object.__setattr__(self, "edge_array", edges)
        degrees = np.bincount(edges.ravel(), minlength=n)
        degrees.setflags(write=False)
        object.__setattr__(self, "degrees", degrees)
        if not _is_connected(n, edges):
            raise ConnectivityError("graph is disconnected")

    @classmethod
    def from_edges(cls, n: int, edges) -> "GraphTopology":
        """Build a topology from an (E, 2) array or any iterable of (i, j)
        pairs."""
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        return cls(n=n, edge_array=edges)

    def to_edgelist_text(self) -> str:
        """Serialize as: first line ``n``, then one ``i j`` pair per line."""
        lines = [str(self.n)]
        lines += [f"{i} {j}" for i, j in self.edge_array.tolist()]
        return "\n".join(lines) + "\n"


def _is_connected(n: int, edges: np.ndarray) -> bool:
    """Whether the (E, 2) edge rows join all n nodes into one component.

    Array union-find: every root that meets a smaller root along an edge
    is hooked onto the smallest such root, then pointer jumping sends
    every node to its root. Each round merges at least two components;
    in practice the rounds are few even on a long path whose nodes are
    numbered at random (11 rounds, about 30 ms, at 10^5 nodes).
    """
    if n == 1:
        return True
    root = np.arange(n)
    while True:
        ri, rj = root[edges[:, 0]], root[edges[:, 1]]
        split = ri != rj
        if not split.any():
            return bool(np.all(root == 0))
        np.minimum.at(root, np.maximum(ri, rj)[split],
                      np.minimum(ri, rj)[split])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


@dataclass(frozen=True, eq=False)
class ConsensusMatrix:
    """Doubly stochastic mixing matrix in CSR form, with its sigma_2.

    ``indptr``, ``indices`` and ``data`` are the read-only CSR arrays of
    the nonzero entries, column indices sorted within each row; they are
    the only copy of the matrix, and ``n`` and ``nnz`` are read off them.
    ``csr``, the ``scipy.sparse.csr_array`` over the same arrays, is built
    on its first read. ``sigma2`` is the second-largest singular value; 1 -
    sigma2 is the spectral gap. ``sigma2_method`` names how it was computed
    (``eigvalsh``, ``eigsh`` or ``svd``). Both are computed together the
    first time either is read, and kept: only the theory bounds need them,
    so a run that checks none never pays for the eigensolve. The
    constructors validate the entries: finite, nonnegative, row and column
    sums within STOCHASTIC_TOL of 1, and (when a topology is supplied)
    zero off the graph edges. The weight file (``to_csv_text``) lists the
    stored entries: O(nnz) bytes. ``nonnegative`` says that the entries
    passed that contract and none is below zero, which it allows down to
    -STOCHASTIC_TOL. Only the constructors set it; a matrix built
    directly, or through ``dataclasses.replace``, keeps False, which only
    costs a step its skip of the slack duals.
    """

    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)
    nonnegative: bool = field(init=False, default=False, repr=False)

    @cached_property
    def _spectrum(self) -> tuple[float, str]:
        return _second_singular_value(self)

    @property
    def sigma2(self) -> float:
        return self._spectrum[0]

    @property
    def sigma2_method(self) -> str:
        return self._spectrum[1]

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return self.data.size

    @cached_property
    def csr(self):
        from scipy.sparse import csr_array  # about 21 MB, so imported here
        return csr_array((self.data, self.indices, self.indptr), shape=(self.n, self.n))

    @property
    def entries(self) -> "ConsensusMatrix":
        """The matrix under the name whose ``nnz`` the benchmark's tracer reads."""
        return self

    @classmethod
    def from_entries(cls, entries: np.ndarray,
                     graph: GraphTopology | None = None) -> "ConsensusMatrix":
        w = np.asarray(entries, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or not w.size:
            raise WeightMatrixError(f"expected a nonempty square matrix, got {w.shape}")
        rows, cols = np.nonzero(w)
        return _validated(*_assemble_csr(len(w), rows, cols, w[rows, cols])[:3],
                          graph)

    def to_csv_text(self) -> str:
        """Serialize the stored entries: a header ``i,j,w``, then one
        ``i,j,w`` line per entry in CSR order, with ``repr`` precision."""
        lines = ["i,j,w"]
        lines += [f"{i},{j},{v!r}" for i, j, v in zip(
            _row_ids(self).tolist(), self.indices.tolist(), self.data.tolist())]
        return "\n".join(lines) + "\n"


def _assemble_csr(n: int, rows: np.ndarray, cols: np.ndarray,
                  values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The CSR arrays (indptr, indices, data) of the n x n matrix holding
    ``values`` at the distinct positions (rows, cols), zeros included, with
    sorted column indices in each row, and ``slots``: entry k is
    ``data[slots[k]]``.

    Indices are int32 whenever they fit: eigsh runs about 35% slower on
    int64 indices at n = 2000. The stable sort is the faster one here
    (15 against 38 us at n = 100, 2.8 against 4.4 ms at n = 10^4).
    """
    order = np.argsort(rows.astype(np.int64) * n + cols, kind="stable")
    slots = np.empty_like(order)
    slots[order] = np.arange(order.size)
    index = np.int32 if n * n < 2 ** 31 else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order].astype(index), values[order], slots


def _row_ids(w: ConsensusMatrix) -> np.ndarray:
    """The row index of each stored entry."""
    return np.repeat(np.arange(w.n), np.diff(w.indptr))


def _line_sums(w: ConsensusMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of the stored entries."""
    return (np.bincount(_row_ids(w), weights=w.data, minlength=w.n),
            np.bincount(w.indices, weights=w.data, minlength=w.n))


def _validated(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
               graph: GraphTopology | None) -> ConsensusMatrix:
    """A ConsensusMatrix over the CSR arrays once its entries pass the
    doubly stochastic contract; WeightMatrixError names the first failure.
    Its callers store no zeros: ``from_entries`` passes the ``np.nonzero``
    entries, the weight schemes positive weights."""
    if not np.all(np.isfinite(data)):
        raise WeightMatrixError("non-finite entries")
    low = np.minimum.reduce(data, initial=0.0)
    if low < -STOCHASTIC_TOL:
        raise WeightMatrixError("negative entries")
    w = ConsensusMatrix(indptr, indices, data)
    for name, sums in zip(("row", "column"), _line_sums(w)):
        deviation = np.max(np.abs(sums - 1.0))
        if deviation > STOCHASTIC_TOL:
            raise WeightMatrixError(
                f"{name} sums deviate from 1 by {deviation:.3e}")
    if graph is not None and graph.n != w.n:
        raise WeightMatrixError("graph size does not match matrix size")
    if graph is not None and not _pattern_on_edges(w, graph):
        raise WeightMatrixError("nonzero entry off the graph structure")
    for array in (data, indices, indptr):
        array.setflags(write=False)
    object.__setattr__(w, "nonnegative", bool(low == 0.0))
    return w


def _entry_codes(w: ConsensusMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Codes i * n + j of the stored entries (i, j), ascending because the
    CSR column indices are sorted, and the codes j * n + i of their mirrors."""
    rows = _row_ids(w)
    cols = w.indices.astype(np.int64)
    return rows * w.n + cols, cols * w.n + rows


def _pattern_on_edges(w: ConsensusMatrix, graph: GraphTopology) -> bool:
    """Whether every off-diagonal stored entry lies on a graph edge."""
    codes, mirrors = _entry_codes(w)
    upper = np.minimum(codes, mirrors)[codes != mirrors]
    # ascending, as edge_array's rows are
    edges = graph.edge_array[:, 0] * graph.n + graph.edge_array[:, 1]
    pos = np.minimum(np.searchsorted(edges, upper), edges.size - 1)
    return bool(np.all(edges[pos] == upper))


def _is_symmetric(w: ConsensusMatrix) -> bool:
    """Whether |W_ij - W_ji| <= 1e-12 for all i, j, read off the stored
    entries: an entry whose mirror is not stored is compared with 0."""
    codes, mirrors = _entry_codes(w)
    pos = np.minimum(np.searchsorted(codes, mirrors), codes.size - 1)
    mirrored = np.where(codes[pos] == mirrors, w.data[pos], 0.0)
    return bool(np.all(np.abs(w.data - mirrored) <= 1e-12))


def _second_singular_value(w: ConsensusMatrix) -> tuple[float, str]:
    """sigma_2 of ``w`` and the name of the method that computed it.

    Symmetric matrices use a dense eigendecomposition up to
    DENSE_SIGMA2_MAX_N and Lanczos on ``w.csr`` above it; asymmetric
    ones (only ever built from dense entries) use a dense SVD. The dense
    methods scatter the entries into an n x n array, for that call only.
    If Lanczos does not converge it is retried once with a wider basis and
    more restarts, and then a WeightMatrixError names n: the matrix is
    never expanded to dense above DENSE_SIGMA2_MAX_N.
    """
    n = w.n
    if n == 1:
        return 0.0, "eigvalsh"
    symmetric = _is_symmetric(w)
    if not symmetric or n <= DENSE_SIGMA2_MAX_N:
        dense = np.zeros((n, n))
        dense[_row_ids(w), w.indices] = w.data
        if not symmetric:
            return float(np.linalg.svd(dense, compute_uv=False)[1]), "svd"
        sigmas = np.sort(np.abs(np.linalg.eigvalsh(dense)))[::-1]
        return float(sigmas[1]), "eigvalsh"
    # imported here: scipy.sparse.linalg adds about 8 MB to a process
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    # eigsh's defaults first (ncv = 20, maxiter = 10 n), then a retry
    for options in ({}, {"ncv": min(n, 80), "maxiter": 50 * n}):
        try:
            vals = eigsh(w.csr, k=2, which="LM", tol=0, v0=v0,
                         return_eigenvectors=False, **options)
            return float(np.sort(np.abs(vals))[0]), "eigsh"
        except ArpackNoConvergence:
            pass
    raise WeightMatrixError(
        f"sigma_2 of the {n}x{n} weight matrix: Lanczos did not converge, "
        f"and n is above DENSE_SIGMA2_MAX_N = {DENSE_SIGMA2_MAX_N}")


def spectral_gap(w: ConsensusMatrix) -> float:
    """Return 1 - sigma_2(W)."""
    return 1.0 - w.sigma2


# ---------------------------------------------------------------------------
# graph generators
# ---------------------------------------------------------------------------

def _retry_connected(build, seed: int, what: str) -> GraphTopology:
    """Call build(seed) until connected, bumping the seed up to the retry cap."""
    seed = checked_int(seed, "seed", 0, error=GraphError)
    for attempt in range(MAX_CONNECTIVITY_RETRIES):
        edges, n = build(seed + attempt)
        try:
            return GraphTopology.from_edges(n, edges)
        except ConnectivityError:
            continue
    raise ConnectivityError(
        f"{what}: no connected graph after {MAX_CONNECTIVITY_RETRIES} seeds "
        f"starting at {seed}")


def _nth_outside(taken: list[int], r: int) -> int:
    """The r-th (from 0) non-negative integer not in the sorted list
    ``taken``: the pick ``[v for v in range(n) if v not in taken][r]``
    without building the list."""
    for t in taken:
        if t > r:
            break
        r += 1
    return r


def generate_watts_strogatz(n: int, k: int, theta: float,
                            seed: int = 0) -> GraphTopology:
    """Watts-Strogatz small-world graph.

    Starts from a ring lattice where every node links to its k nearest
    neighbors (k/2 per side), then rewires the far endpoint of each ring
    edge independently with probability ``theta``, avoiding self-loops and
    duplicate edges. Reseeds until the result is connected. The new
    endpoint is drawn uniformly from the nodes outside i's neighbourhood,
    read off the ring and the edges rewired so far.

    The graph is the one that drawing each coin with ``rng.random()`` and
    each endpoint with ``rng.integers`` from ``np.random.default_rng(seed)``
    gives, bit for bit, but the draws come from ``draws.RewireStream``: the
    coins of all n k / 2 ring edges in one bulk draw and one array mask,
    then O(k log k) Python work per rewire, instead of a Python call per
    ring edge and O(n) per rewire.

    Parameters
    ----------
    n : int
        Node count, must exceed k.
    k : int
        Mean degree, even and >= 2.
    theta : float
        Rewiring probability in [0, 1].
    seed : int
        Base RNG seed.
    """
    k = checked_int(k, "mean degree k", 2, error=GraphError)
    if k % 2 != 0:
        raise GraphError(f"mean degree k must be even, got {k}")
    n = checked_int(n, "node count", k + 1, error=GraphError)
    if not 0.0 <= theta <= 1.0:
        raise GraphError(f"rewiring probability must be in [0, 1], got {theta}")
    check_size(n * k, "n * k", GraphError)

    half = k // 2
    offsets = range(1, half + 1)
    # ring edge i * half + off - 1 joins i and (i + off) % n
    ring_i = np.repeat(np.arange(n, dtype=np.int64), half)
    ring = np.stack([ring_i, (ring_i + np.tile(offsets, n)) % n], axis=1)

    def build(s: int):
        stream = RewireStream(s, n * half, theta)
        # the graph is the ring minus the rewired ring edges plus the new
        # ones; ``lost`` and ``gained`` hold those changes per node, so a
        # rewire reads the k or so neighbours of i only
        lost: defaultdict[int, set[int]] = defaultdict(set)
        gained: defaultdict[int, set[int]] = defaultdict(set)
        rewired, new_edges = [], []
        while (e := stream.next_hit()) is not None:
            i, off = e // half, e % half + 1
            near = ({(i + o) % n for o in offsets}
                    | {(i - o) % n for o in offsets})
            taken = sorted((near - lost[i]) | gained[i] | {i})
            free = n - len(taken)
            if not free:
                continue
            new_j = _nth_outside(taken, stream.integers(free))
            j = (i + off) % n
            lost[i].add(j)
            lost[j].add(i)
            gained[i].add(new_j)
            gained[new_j].add(i)
            rewired.append(e)
            new_edges.append((i, new_j))
        kept = np.delete(ring, rewired, axis=0)
        added = np.array(new_edges, dtype=np.int64).reshape(-1, 2)
        return np.concatenate([kept, added]), n

    return _retry_connected(build, seed, f"watts_strogatz(n={n}, k={k}, theta={theta})")


def generate_erdos_renyi(n: int, p: float, seed: int = 0) -> GraphTopology:
    """Erdos-Renyi G(n, p): every pair included independently with probability p."""
    if not 0.0 < p <= 1.0:
        raise GraphError(f"edge probability must be in (0, 1], got {p}")
    n = checked_int(n, "node count", 1, error=GraphError)
    check_size(n * (n - 1) // 2, "node pair count", GraphError)

    iu, ju = np.triu_indices(n, k=1)

    def build(s: int):
        rng = np.random.default_rng(s)
        mask = rng.random(len(iu)) < p
        return np.stack([iu[mask], ju[mask]], axis=1), n

    return _retry_connected(build, seed, f"erdos_renyi(n={n}, p={p})")


def generate_lattice8(rows: int, cols: int) -> GraphTopology:
    """Unwrapped lattice where each cell links to its <= 8 Moore neighbors."""
    rows = checked_int(rows, "lattice rows", 2, error=GraphError)
    cols = checked_int(cols, "lattice cols", 2, error=GraphError)
    check_size(rows * cols, "rows * cols", GraphError)
    u = np.arange(rows * cols)
    r, c = np.divmod(u, cols)
    edges = []
    # each cell links forward: east, south-west, south, south-east
    for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
        inside = (r + dr < rows) & (0 <= c + dc) & (c + dc < cols)
        edges.append(np.stack([u[inside], u[inside] + dr * cols + dc], axis=1))
    return GraphTopology(rows * cols, np.concatenate(edges))


def generate_barbell(n: int, bridge_count: int = 1) -> GraphTopology:
    """Two cliques of size n/2 joined by ``bridge_count`` index-paired links.

    Bridge b connects node b of the first clique with node n/2 + b of the
    second, for b = 0..bridge_count-1.
    """
    n = checked_int(n, "node count", 4, error=GraphError)
    if n % 2 != 0:
        raise GraphError(f"barbell needs an even node count, got {n}")
    check_size(n, "node count", GraphError)
    half = n // 2
    bridge_count = checked_int(bridge_count, "bridge count", 1, half + 1, GraphError)
    clique = np.stack(np.triu_indices(half, k=1), axis=1)
    bridges = np.arange(bridge_count)
    edges = [clique, clique + half, np.stack([bridges, bridges + half], axis=1)]
    return GraphTopology(n, np.concatenate(edges))


# ---------------------------------------------------------------------------
# weight matrices
# ---------------------------------------------------------------------------

def _edge_weighted(g: GraphTopology, v: np.ndarray) -> ConsensusMatrix:
    """The symmetric matrix with weight v[e] on both entries of edge e and
    the diagonal that completes each row sum to 1.

    A row's sum is taken over its stored entries alone, the diagonal slot
    still 0: ``np.add.reduceat`` gives the first entry plus numpy's
    pairwise sum of the rest. Every row stores its diagonal slot, so no
    segment is empty (reduceat would return data[start] for one). O(nnz)
    time and memory.
    """
    n = g.n
    i, j = g.edge_array.T
    nodes = np.arange(n)
    # the diagonal is stored as 0 while the off-diagonal row sums are taken
    indptr, indices, data, slots = _assemble_csr(
        n, np.concatenate([i, j, nodes]), np.concatenate([j, i, nodes]),
        np.concatenate([v, v, np.zeros(n)]))
    data[slots[2 * len(v):]] = 1.0 - np.add.reduceat(data, indptr[:-1])
    return _validated(indptr, indices, data, g)


def lazy_metropolis(g: GraphTopology) -> ConsensusMatrix:
    """Lazy Metropolis weights.

    Off-diagonal: W_ij = 1 / (2 max(d(i)+1, d(j)+1)) on edges, 0 elsewhere.
    Diagonal: W_ii = 1 - sum_{j != i} W_ij, the row-stochastic completion.
    The result is symmetric, doubly stochastic, diagonally dominant, and its
    spectral gap satisfies 1/(1 - sigma_2) <= 71 n^2.
    """
    i, j = g.edge_array.T
    sizes = g.degrees + 1
    return _edge_weighted(g, 1.0 / (2.0 * np.maximum(sizes[i], sizes[j])))


def laplacian_weights(g: GraphTopology) -> ConsensusMatrix:
    """Normalized-graph-Laplacian weights.

    W = I - D^{1/2} Lap D^{1/2} / (d_max + 1) with Lap = I - D^{-1/2} A
    D^{-1/2}, which is I - (D - A) / (d_max + 1): weight 1/(d_max + 1) on
    every edge and the diagonal that completes each row. For a regular
    graph of degree d this is I - d/(d+1) Lap.
    """
    if g.degrees.min() == 0:
        raise GraphError("isolated node: Laplacian weights undefined")
    v = 1.0 / (g.degrees.max() + 1)
    return _edge_weighted(g, np.full(len(g.edge_array), v))
