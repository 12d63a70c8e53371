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
from scipy import sparse

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
    any order and orientation, with repeats. ``edges`` is the same set as
    a frozenset of tuples. Instances are immutable after construction and
    safe to share across threads.
    """

    n: int
    edge_array: np.ndarray
    degrees: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise GraphError(f"node count must be positive, got {n}")
        pairs = np.asarray(self.edge_array, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphError(f"edges must be (i, j) pairs, got shape {pairs.shape}")
        i, j = pairs.min(axis=1), pairs.max(axis=1)
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
        object.__setattr__(self, "degrees", tuple(degrees.tolist()))
        if not _is_connected(n, edges):
            raise ConnectivityError("graph is disconnected")

    @classmethod
    def from_edges(cls, n: int, edges) -> "GraphTopology":
        """Build a topology from an (E, 2) array or any iterable of (i, j)
        pairs."""
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        return cls(n=n, edge_array=edges)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as (i, j) tuples, i < j."""
        return frozenset(map(tuple, self.edge_array.tolist()))

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        i, j = self.edge_array.T
        a[i, j] = 1.0
        a[j, i] = 1.0
        return a

    def to_edgelist_text(self) -> str:
        """Serialize as: first line ``n``, then one ``i j`` pair per line."""
        lines = [str(self.n)]
        lines += [f"{i} {j}" for i, j in self.edge_array.tolist()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edgelist_text(cls, text: str) -> "GraphTopology":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        n = int(lines[0])
        edges = [tuple(int(tok) for tok in ln.split()) for ln in lines[1:]]
        return cls.from_edges(n, edges)


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
    if len(edges) < n - 1:
        return False
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
    """Doubly stochastic mixing matrix with its CSR form and cached sigma_2.

    ``sigma2`` is the second-largest singular value; 1 - sigma2 is the
    spectral gap. ``sigma2_method`` names how it was computed (``eigvalsh``,
    ``eigsh`` or ``svd``). ``csr`` holds the nonzero entries for mixing.
    Entries are validated by ``from_entries``: nonnegative, row and column
    sums within STOCHASTIC_TOL of 1, and (when a topology is supplied) zero
    off the graph edges.
    """

    n: int
    entries: np.ndarray
    csr: sparse.csr_array = field(init=False, repr=False)
    sigma2: float = field(init=False)
    sigma2_method: str = field(init=False)

    def __post_init__(self):
        self.entries.setflags(write=False)
        csr = _to_csr(self.entries)
        object.__setattr__(self, "csr", csr)
        sigma2, method = _second_singular_value(self.entries, csr)
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "sigma2_method", method)

    @classmethod
    def from_entries(cls, entries: np.ndarray,
                     graph: GraphTopology | None = None) -> "ConsensusMatrix":
        w = np.asarray(entries, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise WeightMatrixError(f"expected a square matrix, got shape {w.shape}")
        n = w.shape[0]
        if not np.all(np.isfinite(w)):
            raise WeightMatrixError("non-finite entries")
        if np.any(w < -STOCHASTIC_TOL):
            raise WeightMatrixError("negative entries")
        rows = w.sum(axis=1)
        cols = w.sum(axis=0)
        if np.max(np.abs(rows - 1.0)) > STOCHASTIC_TOL:
            raise WeightMatrixError(
                f"row sums deviate from 1 by {np.max(np.abs(rows - 1.0)):.3e}")
        if np.max(np.abs(cols - 1.0)) > STOCHASTIC_TOL:
            raise WeightMatrixError(
                f"column sums deviate from 1 by {np.max(np.abs(cols - 1.0)):.3e}")
        if graph is not None and graph.n != n:
            raise WeightMatrixError("graph size does not match matrix size")
        matrix = cls(n=n, entries=w.copy())
        if graph is not None and not _pattern_on_edges(matrix.csr, graph):
            raise WeightMatrixError("nonzero entry off the graph structure")
        return matrix

    def to_csv_text(self) -> str:
        """One matrix row per line, comma separated, full precision."""
        return "\n".join(",".join(repr(float(v)) for v in row)
                         for row in self.entries) + "\n"

    @classmethod
    def from_csv_text(cls, text: str,
                      graph: GraphTopology | None = None) -> "ConsensusMatrix":
        rows = [[float(tok) for tok in ln.split(",")]
                for ln in text.splitlines() if ln.strip()]
        return cls.from_entries(np.array(rows), graph=graph)


def _to_csr(w: np.ndarray) -> sparse.csr_array:
    """CSR form of ``w`` with sorted column indices, assembled from
    ``np.nonzero`` (cheaper on first use than scipy's dense conversion).

    Indices are int32 whenever they fit: eigsh runs about 35% slower on
    int64 indices at n = 2000.
    """
    rows, cols = np.nonzero(w)
    index = np.int32 if w.size < 2 ** 31 else np.int64
    indptr = np.zeros(w.shape[0] + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=w.shape[0]), out=indptr[1:])
    return sparse.csr_array((w[rows, cols], cols.astype(index), indptr),
                            shape=w.shape)


def _entry_codes(csr: sparse.csr_array) -> tuple[np.ndarray, np.ndarray]:
    """Codes i * n + j of the stored entries (i, j), ascending because the
    CSR column indices are sorted, and the codes j * n + i of their mirrors."""
    n = csr.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
    cols = csr.indices.astype(np.int64)
    return rows * n + cols, cols * n + rows


def _pattern_on_edges(csr: sparse.csr_array, graph: GraphTopology) -> bool:
    """Whether every off-diagonal stored entry lies on a graph edge."""
    codes, mirrors = _entry_codes(csr)
    upper = np.minimum(codes, mirrors)[codes != mirrors]
    edges = np.sort(graph.edge_array[:, 0] * graph.n + graph.edge_array[:, 1])
    pos = np.minimum(np.searchsorted(edges, upper), edges.size - 1)
    return bool(np.all(edges[pos] == upper))


def _is_symmetric(csr: sparse.csr_array) -> bool:
    """Whether |W_ij - W_ji| <= 1e-12 for all i, j, read off the stored
    entries: an entry whose mirror is not stored is compared with 0."""
    codes, mirrors = _entry_codes(csr)
    pos = np.minimum(np.searchsorted(codes, mirrors), codes.size - 1)
    mirrored = np.where(codes[pos] == mirrors, csr.data[pos], 0.0)
    return bool(np.all(np.abs(csr.data - mirrored) <= 1e-12))


def _second_singular_value(w: np.ndarray, csr: sparse.csr_array) -> tuple[float, str]:
    """sigma_2 of ``w`` and the name of the method that computed it.

    Symmetric matrices use a dense eigendecomposition up to
    DENSE_SIGMA2_MAX_N and Lanczos on the CSR form above it (falling back
    to the dense one if Lanczos does not converge); asymmetric ones use a
    dense SVD.
    """
    n = w.shape[0]
    if n == 1:
        return 0.0, "eigvalsh"
    if not _is_symmetric(csr):
        return float(np.linalg.svd(w, compute_uv=False)[1]), "svd"
    if n > DENSE_SIGMA2_MAX_N:
        # imported here: scipy.sparse.linalg adds about 8 MB to a process
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        try:
            vals = eigsh(csr, k=2, which="LM", tol=0, v0=v0,
                         return_eigenvectors=False)
            return float(np.sort(np.abs(vals))[0]), "eigsh"
        except ArpackNoConvergence:
            pass
    sigmas = np.sort(np.abs(np.linalg.eigvalsh(w)))[::-1]
    return float(sigmas[1]), "eigvalsh"


def spectral_gap(w: ConsensusMatrix) -> float:
    """Return 1 - sigma_2(W)."""
    return 1.0 - w.sigma2


# ---------------------------------------------------------------------------
# graph generators
# ---------------------------------------------------------------------------

def _retry_connected(build, seed: int, what: str) -> GraphTopology:
    """Call build(seed) until connected, bumping the seed up to the retry cap."""
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
    read off the ring and the edges rewired so far, so a rewire costs
    O(k log k) instead of O(n).

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
    if k < 2 or k % 2 != 0:
        raise GraphError(f"mean degree k must be even and >= 2, got {k}")
    if n <= k:
        raise GraphError(f"need n > k, got n={n}, k={k}")
    if not 0.0 <= theta <= 1.0:
        raise GraphError(f"rewiring probability must be in [0, 1], got {theta}")

    half = k // 2
    offsets = range(1, half + 1)
    # ring edge i * half + off - 1 joins i and (i + off) % n
    ring_i = np.repeat(np.arange(n, dtype=np.int64), half)
    ring = np.stack([ring_i, (ring_i + np.tile(offsets, n)) % n], axis=1)

    def build(s: int):
        rng = np.random.default_rng(s)
        coin = rng.random
        # the graph is the ring minus the rewired ring edges plus the new
        # ones; ``lost`` and ``gained`` hold those changes per node, so a
        # rewire reads the k or so neighbours of i only
        lost: defaultdict[int, set[int]] = defaultdict(set)
        gained: defaultdict[int, set[int]] = defaultdict(set)
        rewired, new_edges = [], []
        for i in range(n):
            for off in offsets:
                if coin() >= theta:
                    continue
                near = ({(i + o) % n for o in offsets}
                        | {(i - o) % n for o in offsets})
                taken = sorted((near - lost[i]) | gained[i] | {i})
                free = n - len(taken)
                if not free:
                    continue
                new_j = _nth_outside(taken, int(rng.integers(free)))
                j = (i + off) % n
                lost[i].add(j)
                lost[j].add(i)
                gained[i].add(new_j)
                gained[new_j].add(i)
                rewired.append(i * half + off - 1)
                new_edges.append((i, new_j))
        kept = np.delete(ring, rewired, axis=0)
        added = np.array(new_edges, dtype=np.int64).reshape(-1, 2)
        return np.concatenate([kept, added]), n

    return _retry_connected(build, seed, f"watts_strogatz(n={n}, k={k}, theta={theta})")


def generate_erdos_renyi(n: int, p: float, seed: int = 0) -> GraphTopology:
    """Erdos-Renyi G(n, p): every pair included independently with probability p."""
    if not 0.0 < p <= 1.0:
        raise GraphError(f"edge probability must be in (0, 1], got {p}")
    if n < 1:
        raise GraphError(f"node count must be positive, got {n}")

    iu, ju = np.triu_indices(n, k=1)

    def build(s: int):
        rng = np.random.default_rng(s)
        mask = rng.random(len(iu)) < p
        return np.stack([iu[mask], ju[mask]], axis=1), n

    return _retry_connected(build, seed, f"erdos_renyi(n={n}, p={p})")


def generate_lattice8(rows: int, cols: int) -> GraphTopology:
    """Unwrapped lattice where each cell links to its <= 8 Moore neighbors."""
    if rows < 2 or cols < 2:
        raise GraphError(f"lattice needs rows, cols >= 2, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    edges.append((u, rr * cols + cc))
    return GraphTopology.from_edges(rows * cols, edges)


def generate_barbell(n: int, bridge_count: int = 1) -> GraphTopology:
    """Two cliques of size n/2 joined by ``bridge_count`` index-paired links.

    Bridge b connects node b of the first clique with node n/2 + b of the
    second, for b = 0..bridge_count-1.
    """
    if n % 2 != 0:
        raise GraphError(f"barbell needs an even node count, got {n}")
    half = n // 2
    if half < 2:
        raise GraphError(f"clique size n/2 must be >= 2, got {half}")
    if not 1 <= bridge_count <= half:
        raise GraphError(
            f"bridge count must be in [1, {half}], got {bridge_count}")
    edges = []
    for base in (0, half):
        for i in range(half):
            for j in range(i + 1, half):
                edges.append((base + i, base + j))
    for b in range(bridge_count):
        edges.append((b, half + b))
    return GraphTopology.from_edges(n, edges)


# ---------------------------------------------------------------------------
# weight matrices
# ---------------------------------------------------------------------------

def lazy_metropolis(g: GraphTopology) -> ConsensusMatrix:
    """Lazy Metropolis weights.

    Off-diagonal: W_ij = 1 / (2 max(d(i)+1, d(j)+1)) on edges, 0 elsewhere.
    Diagonal: W_ii = 1 - sum_{j != i} W_ij, the row-stochastic completion.
    The result is symmetric, doubly stochastic, diagonally dominant, and its
    spectral gap satisfies 1/(1 - sigma_2) <= 71 n^2.
    """
    i, j = g.edge_array.T
    sizes = np.array(g.degrees, dtype=np.int64) + 1
    v = 1.0 / (2.0 * np.maximum(sizes[i], sizes[j]))
    w = np.zeros((g.n, g.n))
    w[i, j] = v
    w[j, i] = v
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return ConsensusMatrix.from_entries(w, graph=g)


def laplacian_weights(g: GraphTopology) -> ConsensusMatrix:
    """Normalized-graph-Laplacian weights.

    For a degree-regular graph of degree d: W = I - d/(d+1) * Lap, with
    Lap = I - D^{-1/2} A D^{-1/2}. Otherwise W = I - D^{1/2} Lap D^{1/2}
    / (d_max + 1). Double stochasticity is validated post hoc.
    """
    n = g.n
    a = g.adjacency_matrix()
    degrees = np.array(g.degrees, dtype=float)
    if np.any(degrees == 0):
        raise GraphError("isolated node: Laplacian weights undefined")
    d_inv_sqrt = 1.0 / np.sqrt(degrees)
    lap = np.eye(n) - (d_inv_sqrt[:, None] * a * d_inv_sqrt[None, :])
    if np.all(degrees == degrees[0]):
        d = degrees[0]
        w = np.eye(n) - (d / (d + 1.0)) * lap
    else:
        d_sqrt = np.sqrt(degrees)
        d_max = degrees.max()
        w = np.eye(n) - (d_sqrt[:, None] * lap * d_sqrt[None, :]) / (d_max + 1.0)
    rows = w.sum(axis=1)
    cols = w.sum(axis=0)
    if max(np.max(np.abs(rows - 1.0)), np.max(np.abs(cols - 1.0))) > 1e-10:
        raise WeightMatrixError("Laplacian weights failed the stochasticity check")
    # symmetrize away representation noise before the 1e-12 gate
    w = 0.5 * (w + w.T)
    w[np.abs(w) < 1e-15] = 0.0
    np.fill_diagonal(w, np.diag(w) + (1.0 - w.sum(axis=1)))
    return ConsensusMatrix.from_entries(w, graph=g)
