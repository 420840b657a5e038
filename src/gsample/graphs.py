"""Undirected weighted graphs, their Laplacians, and random graph models.

Graphs are stored densely; all experiments run at a few thousand nodes at
most, where dense storage is simpler and faster than sparse bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from . import _kernels
from .rng import rng_from

# Generators resample a disconnected draw with an incremented seed this
# many times before giving up.
MAX_CONNECT_ATTEMPTS = 50

# Default neighbour count of the G1 sensor model and edge probability of
# the G2 Erdos-Renyi model.
SENSOR_KNN = 6
ER_P = 0.05

# Rows per block of `exactly_symmetric`.
SYMMETRY_BLOCK = 128


def exactly_symmetric(a: np.ndarray) -> bool:
    """np.array_equal(a, a.T) for a square matrix a, without its n x n
    boolean temporary.

    Each block of SYMMETRY_BLOCK rows is compared, from its diagonal
    block on, with the same columns read down: every pair of entries
    once, and every diagonal entry with itself, so a NaN anywhere fails
    as it does in the full comparison.  Stops at the first unequal block.
    """
    for i in range(0, a.shape[0], SYMMETRY_BLOCK):
        end = i + SYMMETRY_BLOCK
        if not np.array_equal(a[i:end, i:], a[i:, i:end].T):
            return False
    return True


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph on nodes 0..n-1.

    The adjacency matrix must be finite and exactly symmetric, with
    nonnegative weights and a zero diagonal.  `meta` records generator
    provenance (model tag, seed actually used).
    """

    n: int
    adjacency: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=float)
        if self.n < 2:
            raise ValueError("graph needs at least 2 nodes")
        if adj.shape != (self.n, self.n):
            raise ValueError(f"adjacency shape {adj.shape} != ({self.n}, {self.n})")
        # reductions, not an n x n boolean; a NaN comes out of both
        heaviest, lightest = float(adj.max()), float(adj.min())
        for weight in (heaviest, lightest):
            if not math.isfinite(weight):
                raise ValueError(f"adjacency has a non-finite weight {weight}")
        if not exactly_symmetric(adj):
            raise ValueError("adjacency must be exactly symmetric")
        if lightest < 0:
            raise ValueError("edge weights must be nonnegative")
        if np.any(np.diag(adj) != 0):
            raise ValueError("self-loops are not allowed")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(np.triu(self.adjacency)) )


@dataclass(frozen=True)
class Laplacian:
    """Combinatorial Laplacian L = D - A."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def build_laplacian(graph: Graph) -> Laplacian:
    """Return L = D - A for a valid Graph.

    Row sums of L are zero to rounding and L is positive semidefinite;
    both follow from symmetry and nonnegative weights, which the Graph
    constructor enforces.
    """
    adj = graph.adjacency
    return Laplacian(np.diag(adj.sum(axis=1)) - adj)


def _is_connected(n: int, rows: np.ndarray, cols: np.ndarray) -> bool:
    """Whether the undirected graph on n nodes with the edges
    (rows[k], cols[k]) is connected; each edge may be listed in one or
    both directions."""
    edges = csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    ncomp, _ = connected_components(edges, directed=False)
    return ncomp == 1


def _resample(model: str, n: int, seed: int, draw) -> Graph:
    """The first connected graph `draw(rng)` returns over the seeds seed,
    seed + 1, ... (MAX_CONNECT_ATTEMPTS of them): `draw` gives the adjacency,
    None when disconnected, and the model's own `meta` fields."""
    for used_seed in range(seed, seed + MAX_CONNECT_ATTEMPTS):
        adj, meta = draw(rng_from(used_seed))
        if adj is not None:
            return Graph(n, adj, meta={"model": model, "seed": used_seed, **meta})
    raise RuntimeError(f"no connected {model} graph in {MAX_CONNECT_ATTEMPTS} "
                       f"attempts (n={n})")


def _bernoulli_edges(rng, n: int, prob):
    """Unit-weight adjacency with each pair i < j linked with probability
    prob (a scalar or an n x n array), or None when it is disconnected."""
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    if _is_connected(n, *np.nonzero(upper)):
        return (upper | upper.T).astype(float)


def gen_sensor(n: int, k_nn: int = SENSOR_KNN, seed: int = 0) -> Graph:
    """Random geometric sensor graph on the unit square.

    Nodes are placed uniformly at random; each node is linked to its
    k_nn nearest neighbours (union symmetrization) with Gaussian-kernel
    weights w_ij = exp(-d_ij^2 / (2 theta^2)), where theta is the mean
    distance to the k_nn-th neighbour.  Disconnected draws are resampled
    with an incremented seed.
    """
    if not 1 <= k_nn < n:
        raise ValueError(f"need 1 <= k_nn < n, got k_nn={k_nn}, n={n}")

    def draw(rng):
        pos = rng.random((n, 2))
        # the k_nn + 1 nearest by sqrt(dx*dx + dy*dy), ties by index, as
        # a stable argsort of the distance matrix orders them; column 0
        # is the node itself
        near, near_dist = _kernels.knn(pos, k_nn)
        theta = near_dist[:, k_nn].mean()
        weights = np.exp(-(near_dist[:, 1:] ** 2) / (2.0 * theta ** 2))
        rows, cols = np.arange(n)[:, None], near[:, 1:]
        linked = weights > 0  # an underflowed weight is no edge
        if not _is_connected(n, np.nonzero(linked)[0], cols[linked]):
            return None, {}
        # (x_i - x_j)^2 equals (x_j - x_i)^2 exactly, so distances are
        # bitwise symmetric and a mutual pair gets the same weight from either end:
        # writing both directions is the union symmetrization max(A, A^T)
        # without a second n x n array
        adj = np.zeros((n, n))
        adj[rows, cols] = weights
        adj[cols, rows] = weights
        return adj, {"k_nn": k_nn}

    return _resample("sensor", n, seed, draw)


def gen_er(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi graph: each pair linked independently with probability p."""
    if not 0 < p <= 1:
        raise ValueError("edge probability must be in (0, 1]")
    if n < 2:
        raise ValueError("graph needs at least 2 nodes")
    return _resample("er", n, seed,
                     lambda rng: (_bernoulli_edges(rng, n, p), {"p": p}))


def gen_community(n: int, seed: int = 0) -> Graph:
    """Stochastic block model with floor(sqrt(n)/2) communities.

    Community sizes are random with a minimum of 2 nodes each; edges are
    unit weight with probability 0.3 inside a community and 2/n across
    communities.
    """
    if n < 8:
        raise ValueError("community model needs n >= 8")
    c = int(np.floor(np.sqrt(n) / 2.0))

    def draw(rng):
        sizes = 2 + rng.multinomial(n - 2 * c, np.full(c, 1.0 / c))
        labels = np.repeat(np.arange(c), sizes)
        prob = np.where(labels[:, None] == labels[None, :], 0.3, 2.0 / n)
        return _bernoulli_edges(rng, n, prob), {
            "communities": c, "sizes": tuple(int(s) for s in sizes)}

    return _resample("community", n, seed, draw)


def save_graph(graph: Graph, path) -> None:
    """Write a graph as a weighted edge list, one `i j w` triple per line.

    Indices are 0-based with i < j; weights use round-trip float repr so
    load_graph reproduces the adjacency bit for bit.  Lines beginning
    with `#` are comments.
    """
    ii, jj = np.nonzero(np.triu(graph.adjacency, k=1))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, j in zip(ii.tolist(), jj.tolist()):
            fh.write(f"{i} {j} {float(graph.adjacency[i, j])!r}\n")


def load_graph(path, n: int | None = None) -> Graph:
    """Read a weighted edge list written by save_graph.

    If `n` is not given, the node count is inferred as max index + 1
    (exact for graphs without isolated nodes, in particular everything
    the generators produce).
    """
    edges = []
    seen = set()
    max_idx = -1
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'i j w', got {line!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
                w = float(parts[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparsable edge {line!r}") from exc
            if i == j:
                raise ValueError(f"{path}:{lineno}: self-loop on node {i}")
            if i < 0 or j < 0 or i >= j:
                raise ValueError(f"{path}:{lineno}: indices must satisfy 0 <= i < j")
            if not math.isfinite(w):
                raise ValueError(f"{path}:{lineno}: non-finite weight {parts[2]!r}")
            if w < 0:
                raise ValueError(f"{path}:{lineno}: negative weight {w}")
            if n is not None and j >= n:
                raise ValueError(f"{path}:{lineno}: node index {j} out of range for n={n}")
            if (i, j) in seen:
                raise ValueError(f"{path}:{lineno}: duplicate edge ({i}, {j})")
            seen.add((i, j))
            edges.append((i, j, w))
            max_idx = max(max_idx, j)
    size = n if n is not None else max_idx + 1
    if size < 2:
        raise ValueError(f"{path}: edge list defines fewer than 2 nodes")
    adj = np.zeros((size, size))
    for i, j, w in edges:
        adj[i, j] = w
        adj[j, i] = w
    return Graph(size, adj, meta={"model": "file", "path": str(path)})
