"""Undirected weighted graphs, their Laplacians, and random graph models.

A graph is stored as its edge list, each edge once.  The generators and
`load_graph` build that list without an n x n array, and `build_laplacian`
keeps it: each consumer of L writes its own working arrays from the edges
(`Laplacian.dense`, or the packed triangle and diagonal the Jacobi sweep
rotates), and a Laplacian keeps nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .rng import rng_from

# Generators resample a disconnected draw with an incremented seed this
# many times before giving up.
MAX_CONNECT_ATTEMPTS = 50

# Default neighbour count of the G1 sensor model and edge probability of
# the G2 Erdos-Renyi model.
SENSOR_KNN = 6
ER_P = 0.05

# Rows per block of the G2 and G3 draws.
DRAW_BLOCK = 128


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Undirected weighted graph on nodes 0..n-1, stored as its edge list.

    Edge k joins rows[k] < cols[k] with weight weights[k], finite and
    positive; each edge is listed once, in (i, j) order.  The constructor
    checks the list in O(E) time and keeps read-only copies of the three
    arrays.  `meta` records generator provenance (model tag, seed
    actually used).
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    meta: dict

    def __init__(self, n: int, rows, cols, weights, meta: dict | None = None):
        rows, cols = np.asarray(rows), np.asarray(cols)
        if any(index.size and index.dtype.kind not in "iu"
               for index in (rows, cols)):
            raise ValueError("edge indices must be integers")
        rows = np.array(rows, dtype=np.int64)
        cols = np.array(cols, dtype=np.int64)
        weights = np.array(weights, dtype=float)
        if n < 2:
            raise ValueError("graph needs at least 2 nodes")
        if rows.ndim != 1 or not rows.shape == cols.shape == weights.shape:
            raise ValueError("rows, cols and weights must be 1-d arrays of "
                             "one length")
        if np.any(rows == cols):
            raise ValueError("self-loops are not allowed")
        key = rows * n + cols
        if np.any(rows > cols) or np.any(key[1:] <= key[:-1]):
            raise ValueError("edges must be listed once each, with i < j, "
                             "in (i, j) order")
        if len(rows) and (rows.min() < 0 or cols.max() >= n):
            raise ValueError(f"edge index out of range for n={n}")
        if not np.isfinite(weights).all():
            raise ValueError("edge weights must be finite")
        if np.any(weights <= 0):
            raise ValueError("edge weights must be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", _read_only(rows))
        object.__setattr__(self, "cols", _read_only(cols))
        object.__setattr__(self, "weights", _read_only(weights))
        object.__setattr__(self, "meta", {} if meta is None else meta)

    @property
    def edge_count(self) -> int:
        return len(self.weights)


@dataclass(frozen=True, init=False, eq=False)
class Laplacian:
    """Combinatorial Laplacian L = D - A of a Graph.

    It holds only n and the graph's read-only edge arrays, shared, and
    no n x n array.  Each consumer writes L afresh into working arrays of
    its own, so nothing copies L: `dense()` writes the n x n array that
    the eigensolver works in, and `packed_upper()` and `diagonal()` the
    half-size pair that the Jacobi sweep rotates.  `matrix` is the dense
    array, written at the first read and kept read-only, for readers off
    the trial path.  Each off-diagonal entry is 0.0 - w, and the diagonal
    is `diagonal()`'s, the one place it is computed; L is symmetric with
    finite off-diagonal entries by construction, so only that diagonal
    is checked to be finite.
    """

    n: int

    def __init__(self, graph: Graph):
        object.__setattr__(self, "n", graph.n)
        object.__setattr__(self, "_edges",
                           (graph.rows, graph.cols, graph.weights))

    def dense(self) -> np.ndarray:
        """L as a fresh, writable, C-ordered n x n array: the edges
        scattered as 0.0 - w, and `diagonal()` on the diagonal.  Nothing
        is kept."""
        rows, cols, weights = self._edges
        n = self.n
        lap = np.zeros((n, n))
        off = 0.0 - weights
        lap[rows, cols] = off
        lap[cols, rows] = off
        lap.flat[::n + 1] = self.diagonal()
        return lap

    def packed_upper(self) -> np.ndarray:
        """The strict upper triangle of L, packed row by row into a fresh,
        writable array of n (n - 1) / 2 entries: L[i, i+1:] for
        i = 0 .. n - 2 one after the other, so L[r, c], r < c, sits at
        r (2n - r - 1) / 2 + c - r - 1.  Bitwise the entries of `dense()`,
        from a zero fill and one scatter."""
        rows, cols, weights = self._edges
        n = self.n
        upper = np.zeros(n * (n - 1) // 2)
        upper[rows * (2 * n - rows - 1) // 2 + cols - rows - 1] = \
            0.0 - weights
        return upper

    def diagonal(self) -> np.ndarray:
        """The diagonal of L as a fresh, writable n-vector, with no n x n
        array: `_kernels.laplacian_diagonal`, +0.0 on an isolated node.
        Finite weights can still overflow a row sum, so a non-finite entry
        raises ValueError."""
        diag = _kernels.laplacian_diagonal(self.n, *self._edges)
        if not np.isfinite(diag).all():
            raise ValueError("Laplacian has non-finite entries")
        return diag

    @cached_property
    def matrix(self) -> np.ndarray:
        """L as a read-only n x n array, written at the first read."""
        return _read_only(self.dense())


def build_laplacian(graph: Graph) -> Laplacian:
    """L = D - A of a Graph, backed by its edge arrays; no n x n array is
    written here.  L is positive semidefinite with row sums zero to
    rounding, since the Graph holds each edge once with a positive
    weight."""
    return Laplacian(graph)


def _is_connected(n: int, rows: np.ndarray, cols: np.ndarray) -> bool:
    """Whether the undirected graph on n nodes with the edges
    (rows[k], cols[k]) is connected; each edge may be listed in one or
    both directions."""
    return _kernels.components(n, rows, cols) == 1


def _resample(model: str, n: int, seed: int, draw) -> Graph:
    """The first connected graph `draw(rng)` returns over the seeds seed,
    seed + 1, ... (MAX_CONNECT_ATTEMPTS of them): `draw` gives the edge
    list (rows, cols, weights), None when disconnected, and the model's
    own `meta` fields."""
    for used_seed in range(seed, seed + MAX_CONNECT_ATTEMPTS):
        edges, meta = draw(rng_from(used_seed))
        if edges is not None:
            return Graph(
                n, *edges, meta={"model": model, "seed": used_seed, **meta})
    raise RuntimeError(f"no connected {model} graph in {MAX_CONNECT_ATTEMPTS} "
                       f"attempts (n={n})")


def _bernoulli_edges(rng, n: int, prob):
    """Unit-weight edges with each pair i < j linked with probability
    prob(start, stop) for rows start..stop-1 (a scalar or one value per
    pair of those rows), or None when the graph is disconnected.

    The uniforms are drawn DRAW_BLOCK rows at a time, the stream of
    one n x n draw without its n x n array."""
    rows, cols = [], []
    for start in range(0, n, DRAW_BLOCK):
        stop = min(start + DRAW_BLOCK, n)
        linked = rng.random((stop - start, n)) < prob(start, stop)
        i, j = np.nonzero(np.triu(linked, k=start + 1))
        rows.append(i + start)
        cols.append(j)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    if _is_connected(n, rows, cols):
        return rows, cols, np.ones(len(rows))


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
        linked = weights > 0  # an underflowed weight is no edge
        rows, cols = np.nonzero(linked)[0], near[:, 1:][linked]
        if not _is_connected(n, rows, cols):
            return None, {}
        # (x_i - x_j)^2 equals (x_j - x_i)^2 exactly, so distances are
        # bitwise symmetric and a mutual pair gets the same weight from
        # either end: keeping each pair once is the union symmetrization
        # max(A, A^T)
        key, first = np.unique(np.minimum(rows, cols) * n
                               + np.maximum(rows, cols), return_index=True)
        return (key // n, key % n, weights[linked][first]), {"k_nn": k_nn}

    return _resample("sensor", n, seed, draw)


def gen_er(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi graph: each pair linked independently with probability p."""
    if not 0 < p <= 1:
        raise ValueError("edge probability must be in (0, 1]")
    if n < 2:
        raise ValueError("graph needs at least 2 nodes")
    return _resample("er", n, seed, lambda rng: (
        _bernoulli_edges(rng, n, lambda start, stop: p), {"p": p}))


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

        def prob(start, stop):
            return np.where(labels[start:stop, None] == labels[None, :],
                            0.3, 2.0 / n)

        return _bernoulli_edges(rng, n, prob), {
            "communities": c, "sizes": tuple(int(s) for s in sizes)}

    return _resample("community", n, seed, draw)


def save_graph(graph: Graph, path) -> None:
    """Write a graph as a weighted edge list, one `i j w` triple per line.

    Indices are 0-based with i < j, in (i, j) order; weights use
    round-trip float repr so load_graph reproduces the graph bit for bit.
    Lines beginning with `#` are comments.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, j, w in zip(graph.rows.tolist(), graph.cols.tolist(),
                           graph.weights.tolist()):
            fh.write(f"{i} {j} {w!r}\n")


def load_graph(path, n: int | None = None) -> Graph:
    """Read a weighted edge list written by save_graph.

    Lines may come in any order; a zero weight is no edge.  If `n` is not
    given, the node count is inferred as max index + 1 (exact for graphs
    without isolated nodes, in particular everything the generators
    produce).
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
            if w != 0:
                edges.append((i, j, w))
            max_idx = max(max_idx, j)
    size = n if n is not None else max_idx + 1
    if size < 2:
        raise ValueError(f"{path}: edge list defines fewer than 2 nodes")
    edges.sort()
    rows, cols, weights = zip(*edges) if edges else ((), (), ())
    return Graph(size, rows, cols, weights,
                 meta={"model": "file", "path": str(path)})
