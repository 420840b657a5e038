import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import graph_from_adjacency
from gsample import (Graph, build_laplacian, gen_community, gen_er,
                     gen_sensor, greedy_jacobi, load_graph, save_graph)
from gsample import _kernels, bench, graphs
from gsample.graphs import (DRAW_BLOCK, ER_P, MAX_CONNECT_ATTEMPTS,
                            SENSOR_KNN, _is_connected)
from gsample.oracle import dense_adjacency
from gsample.rng import rng_from


def test_laplacian_two_node_path():
    g = graph_from_adjacency([[0.0, 1.0], [1.0, 0.0]])
    lap = build_laplacian(g)
    assert np.array_equal(lap.matrix, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_edgeless():
    g = graph_from_adjacency(np.zeros((3, 3)))
    assert np.array_equal(build_laplacian(g).matrix, np.zeros((3, 3)))


def test_laplacian_weighted_triangle():
    adj = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    lap = build_laplacian(graph_from_adjacency(adj))
    expected = np.array([[5.0, -2.0, -3.0], [-2.0, 2.0, 0.0], [-3.0, 0.0, 3.0]])
    assert np.array_equal(lap.matrix, expected)


def _assert_laplacian_is_the_dense_formula(graph, adj=None):
    if adj is None:
        adj = dense_adjacency(graph)
    assert build_laplacian(graph).matrix.tobytes() == \
        (np.diag(adj.sum(axis=1)) - adj).tobytes()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [50, 200, 800])
@pytest.mark.parametrize("model", ["G1", "G2", "G3"])
def test_laplacian_from_edges_is_bitwise_the_dense_formula(model, n, seed):
    # G2 at the default p is never connected at n = 50
    _assert_laplacian_is_the_dense_formula(
        bench.make_graph(model, n, seed, SENSOR_KNN, max(ER_P, 8.0 / n)))


def test_laplacian_of_a_dense_graph_is_bitwise_the_dense_formula():
    # weights over many magnitudes, an isolated node, and -0.0 entries,
    # which are no edges
    n = 2 * DRAW_BLOCK + 3
    rng = np.random.default_rng(8)
    adj = np.triu(10.0 ** rng.uniform(-8, 8, (n, n))
                  * (rng.random((n, n)) < 0.1), 1)
    adj[5], adj[:, 5] = 0.0, 0.0
    adj += adj.T
    adj[7, 9] = adj[9, 7] = adj[5, 6] = adj[6, 5] = -0.0
    graph = graph_from_adjacency(adj)
    _assert_laplacian_is_the_dense_formula(graph, adj)
    assert np.array_equal(dense_adjacency(graph), adj)
    rows, cols = np.nonzero(np.triu(adj, 1))
    assert np.array_equal(graph.rows, rows)
    assert np.array_equal(graph.cols, cols)
    assert graph.weights.tobytes() == adj[rows, cols].tobytes()


def test_isolated_node_of_a_loaded_graph_gets_a_positive_zero_diagonal(
        tmp_path):
    path = tmp_path / "isolated.txt"
    path.write_text("0 1 0.5\n1 3 2.0\n", encoding="utf-8")
    graph = load_graph(path, n=4)
    _assert_laplacian_is_the_dense_formula(graph)
    # -s or np.negative(s) would give -0.0 for node 2's empty row sum
    assert not np.signbit(build_laplacian(graph).matrix[2, 2])


_SPEC_DIGEST = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import spec_digest
from gsample import bench
from gsample.oracle import dense_adjacency

graph = bench.make_graph("G1", 30, 3, 6, 0.05)
adj = dense_adjacency(graph)
print(spec_digest.generator_bytes(graph)
      == adj.tobytes() + repr(sorted(graph.meta.items())).encode())
print(spec_digest.laplacian_bytes(graph)
      == (np.diag(adj.sum(axis=1)) - adj).tobytes())
"""


def test_spec_digest_hashes_the_dense_adjacency_and_laplacian():
    # the byte-identity script's graph and Laplacian bytes, in a process
    # of its own: the script sets the BLAS thread count as it loads
    root = Path(bench.__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "-c", _SPEC_DIGEST, str(root / "scripts")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]


def _assert_packed_pair_is_dense(graph):
    # the sweep's pair and dense() against the dense formula
    # np.diag(A.sum(axis=1)) - A of the adjacency, written without the
    # Laplacian: its strict upper triangle, row by row, and its diagonal,
    # byte for byte, each a fresh writable array.  The diagonal is read
    # twice, by a Laplacian that has written no dense array and by one
    # that has: dense() leaves nothing behind that diagonal() could read
    adj = dense_adjacency(graph)
    expected = np.diag(adj.sum(axis=1)) - adj
    fresh, lap = build_laplacian(graph), build_laplacian(graph)
    first = fresh.diagonal()
    assert lap.dense().tobytes() == expected.tobytes()
    upper, after = lap.packed_upper(), lap.diagonal()
    assert upper.tobytes() == expected[np.triu_indices(lap.n, 1)].tobytes()
    for array in (upper, first, after):
        assert array.flags.writeable and array.flags.c_contiguous
        assert array.dtype == np.float64 and array.ndim == 1
    for diagonal, diag in ((fresh.diagonal, first), (lap.diagonal, after)):
        assert diag.tobytes() == np.diag(expected).tobytes()
        diag[:] = 7.0  # a consumer's working array is its own
        assert diagonal().tobytes() == np.diag(expected).tobytes()
    return lap.diagonal()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [50, 200, 800])
@pytest.mark.parametrize("model", ["G1", "G2", "G3"])
def test_packed_triangle_and_diagonal_are_bitwise_dense(model, n, seed):
    graph = bench.make_graph(model, n, seed, SENSOR_KNN, max(ER_P, 8.0 / n))
    _assert_packed_pair_is_dense(graph)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 127, 128, 129, 256,
                               257, 1000])
@pytest.mark.parametrize("shape", ["star", "path"])
def test_packed_pair_of_a_star_and_a_path_is_bitwise_dense(shape, n):
    # the kernel sums a row as numpy sums the adjacency's: fewer than 8
    # entries in one loop, up to 128 in eight running sums, and a longer
    # row in halves.  A star's centre, n // 2, has a full row, with
    # entries on both sides of the diagonal, and the weights span 16
    # orders of magnitude, so a sum in another order changes the last bits
    weights = 10.0 ** rng_from(n).uniform(-8, 8, n - 1)
    if shape == "path":
        graph = Graph(n, np.arange(n - 1), np.arange(1, n), weights)
    else:
        leaves = np.delete(np.arange(n), n // 2)
        graph = Graph(n, np.minimum(leaves, n // 2),
                      np.maximum(leaves, n // 2), weights)
    _assert_packed_pair_is_dense(graph)


def test_packed_pair_of_a_dense_laplacian_and_of_a_loaded_graph(tmp_path):
    path = tmp_path / "isolated.txt"
    path.write_text("0 1 0.5\n1 3 2.0\n3 4 1e-300\n", encoding="utf-8")
    for n in (5, 9, 200):
        graph = load_graph(path, n=n)
        lap = build_laplacian(graph)
        diag = _assert_packed_pair_is_dense(graph)
        # node 2 and the nodes past 4 are isolated: +0.0, the sum of
        # their empty adjacency rows
        isolated = diag[[2, *range(5, n)]]
        assert not isolated.any() and not np.signbit(isolated).any()
        assert not np.shares_memory(lap.packed_upper(), lap.packed_upper())


def test_packed_pair_of_an_overflowing_row_sum_is_non_finite():
    # finite weights, but node 1's row sum overflows: the diagonal raises,
    # and so do dense() and the sweep that read it
    graph = Graph(3, [0, 1], [1, 2], [1e308, 1e308])
    with np.errstate(over="ignore"):
        degrees = dense_adjacency(graph).sum(axis=1)
    assert degrees[1] == np.inf and np.isfinite(degrees[[0, 2]]).all()
    lap = build_laplacian(graph)
    assert lap.packed_upper().tolist() == [-1e308, 0.0, -1e308]
    for consume in (lap.dense, lap.diagonal,
                    lambda: greedy_jacobi(lap, 5)):
        with pytest.raises(ValueError, match="non-finite"):
            consume()


def test_laplacian_shares_the_edges_and_writes_a_fresh_array_per_call():
    graph = gen_sensor(60, 6, seed=1)
    lap = build_laplacian(graph)
    assert lap.n == 60 and "matrix" not in vars(lap)
    assert all(mine is theirs for mine, theirs in zip(
        lap._edges, (graph.rows, graph.cols, graph.weights)))
    first, second = lap.dense(), lap.dense()
    assert first is not second and not np.shares_memory(first, second)
    assert first.flags.writeable and first.flags.c_contiguous
    first[:] = 7.0  # a consumer's working array is its own
    assert lap.dense().tobytes() == second.tobytes() == lap.matrix.tobytes()
    # matrix keeps nothing either: each read is a read-only array of its own
    read, again = lap.matrix, lap.matrix
    assert read is not again and not np.shares_memory(read, again)
    assert not read.flags.writeable and not again.flags.writeable
    assert read.tobytes() == again.tobytes() == second.tobytes()
    assert vars(lap).keys() == {"n", "_edges"}


@pytest.mark.parametrize("model", ["G1", "G2", "G3"])
def test_edges_are_the_upper_triangle_of_the_adjacency(model):
    graph = bench.make_graph(model, 300, 3, SENSOR_KNN, ER_P)
    adj = dense_adjacency(graph)
    rows, cols = np.nonzero(np.triu(adj, 1))
    assert graph.rows.dtype == graph.cols.dtype == np.int64
    assert np.array_equal(graph.rows, rows)
    assert np.array_equal(graph.cols, cols)
    assert graph.weights.tobytes() == adj[rows, cols].tobytes()
    assert graph.edge_count == len(rows) and graph.weights.min() > 0
    for array in (graph.rows, graph.cols, graph.weights):
        assert not array.flags.writeable


@pytest.mark.parametrize("n,p", [(2, 1.0), (DRAW_BLOCK, 0.3),
                                 (DRAW_BLOCK + 1, 0.3), (300, 0.05)])
def test_er_edges_come_from_one_n_by_n_draw(n, p):
    # the uniforms are drawn in row blocks; one n x n draw gives them too
    graph = gen_er(n, p, seed=5)
    dense = rng_from(graph.meta["seed"]).random((n, n))
    rows, cols = np.nonzero(np.triu(dense < p, 1))
    assert np.array_equal(graph.rows, rows)
    assert np.array_equal(graph.cols, cols)


def test_community_edges_come_from_one_n_by_n_draw():
    n = 300
    graph = gen_community(n, seed=2)
    rng = rng_from(graph.meta["seed"])
    c = graph.meta["communities"]
    sizes = 2 + rng.multinomial(n - 2 * c, np.full(c, 1.0 / c))
    labels = np.repeat(np.arange(c), sizes)
    prob = np.where(labels[:, None] == labels[None, :], 0.3, 2.0 / n)
    rows, cols = np.nonzero(np.triu(rng.random((n, n)) < prob, 1))
    assert np.array_equal(graph.rows, rows)
    assert np.array_equal(graph.cols, cols)


def test_graph_from_edges():
    graph = Graph(4, [0, 0, 2], [1, 3, 3], [0.5, 2.0, 1.0],
                  meta={"model": "toy"})
    assert graph.n == 4 and graph.edge_count == 3
    assert graph.meta == {"model": "toy"}
    assert np.array_equal(dense_adjacency(graph), [[0.0, 0.5, 0.0, 2.0],
                                                   [0.5, 0.0, 0.0, 0.0],
                                                   [0.0, 0.0, 0.0, 1.0],
                                                   [2.0, 0.0, 1.0, 0.0]])
    edgeless = Graph(3, [], [], [])
    assert edgeless.edge_count == 0
    assert build_laplacian(edgeless).matrix.tobytes() == \
        np.zeros((3, 3)).tobytes()


@pytest.mark.parametrize("n,rows,cols,weights,match", [
    (1, [], [], [], "at least 2 nodes"),
    (3, [0], [1, 2], [1.0], "one length"),
    (3, [0, 1], [1, 1], [1.0, 1.0], "self-loops"),
    (3, [1], [0], [1.0], "i < j"),
    (3, [0, 0], [2, 1], [1.0, 1.0], r"\(i, j\) order"),
    (3, [0, 0], [1, 1], [1.0, 2.0], "once each"),
    (3, [0], [3], [1.0], "out of range"),
    (3, [-1], [1], [1.0], "out of range"),
    (3, [0], [1], [np.nan], "finite"),
    (3, [0], [1], [np.inf], "finite"),
    (3, [0], [1], [0.0], "positive"),
    (3, [0], [1], [-1.0], "positive"),
    # a float index would be truncated to the edges (0, 1) and (1, 2)
    (3, [0.5, 1.9], [1.7, 2.2], [1.0, 2.0], "integers"),
    (3, [0], [1.0], [1.0], "integers"),
])
def test_graph_from_edges_rejects_bad_edge_lists(n, rows, cols, weights,
                                                 match):
    with pytest.raises(ValueError, match=match):
        Graph(n, rows, cols, weights)


def test_sensor_two_nodes_closed_form():
    adj = dense_adjacency(gen_sensor(2, 1, seed=0))
    # theta equals the single pairwise distance, so the weight is e^{-1/2}
    assert adj[0, 1] == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert adj[0, 1] == adj[1, 0]


def test_sensor_union_degree_and_connectivity():
    adj = dense_adjacency(gen_sensor(10, 6, seed=42))
    degrees = (adj > 0).sum(axis=1)
    assert degrees.min() >= 6
    # single connected component via BFS, independent of scipy
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in np.nonzero(adj[i])[0]:
            if j not in seen:
                seen.add(int(j))
                frontier.append(int(j))
    assert len(seen) == len(adj)


def test_sensor_symmetrization_matches_knn_union():
    # oracle: recompute the k-nn sets directly from the recorded seed
    g = gen_sensor(12, 3, seed=7)
    rng = np.random.Generator(np.random.PCG64(g.meta["seed"]))
    pos = rng.random((12, 2))
    dist = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(-1))
    order = np.argsort(dist, axis=1, kind="stable")
    knn = {i: set(order[i, 1:4].tolist()) for i in range(12)}
    adj = dense_adjacency(g)
    for i in range(12):
        for j in range(12):
            if i == j:
                continue
            expected = j in knn[i] or i in knn[j]
            assert (adj[i, j] > 0) == expected


@pytest.mark.parametrize("n,k,seed", [(7, 6, 0), (20, 3, 1), (200, 6, 2),
                                      (800, 6, 3)])
def test_sensor_weights_equal_the_max_union_of_directed_knn(n, k, seed):
    # reference: directed k-nn weights, then max(A, A^T), bit for bit
    g = gen_sensor(n, k, seed=seed)
    pos = np.random.Generator(np.random.PCG64(g.meta["seed"])).random((n, 2))
    dist = _distances(pos)
    near = np.argsort(dist, axis=1, kind="stable")[:, :k + 1]
    near_dist = np.take_along_axis(dist, near, axis=1)
    theta = near_dist[:, k].mean()
    directed = np.zeros((n, n))
    directed[np.arange(n)[:, None], near[:, 1:]] = np.exp(
        -(near_dist[:, 1:] ** 2) / (2.0 * theta ** 2))
    assert np.array_equal(dense_adjacency(g),
                          np.maximum(directed, directed.T))


@pytest.mark.parametrize("k_nn", [0, -3, 10])
def test_sensor_rejects_neighbour_counts_outside_1_to_n_minus_1(k_nn):
    with pytest.raises(ValueError, match="k_nn"):
        gen_sensor(10, k_nn, seed=0)


def _distances(pos):
    return np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(-1))


def _assert_nearest_matches_stable_sort(pos, k):
    # the k-NN kernel of gen_sensor against a stable sort of the full
    # distance matrix: the same nodes in the same order, the same distances
    dist = _distances(pos)
    expected = np.argsort(dist, axis=1, kind="stable")[:, :k + 1]
    near, near_dist = _kernels.knn(np.ascontiguousarray(pos), k)
    assert np.array_equal(near, expected)
    assert near_dist.tobytes() == \
        np.take_along_axis(dist, expected, axis=1).tobytes()


@pytest.mark.parametrize("n,k", [(2, 1), (7, 6), (40, 1), (40, 6), (300, 6),
                                 (300, 25)])
def test_nearest_matches_stable_sort_on_random_draws(n, k):
    rng = np.random.default_rng(n + k)
    for _ in range(3):
        _assert_nearest_matches_stable_sort(rng.random((n, 2)), k)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_nearest_breaks_boundary_ties_by_column(k):
    rng = np.random.default_rng(k)
    # duplicate positions: zero distances, and a twin that sorts before
    # the node itself
    pos = rng.random((30, 2))
    pos[[4, 9, 17]] = pos[12]
    pos[25] = pos[2]
    _assert_nearest_matches_stable_sort(pos, k)
    # a lattice: four equidistant neighbours, then four more on the
    # diagonals
    grid = np.stack(np.meshgrid(np.arange(6.0), np.arange(6.0)), -1)
    _assert_nearest_matches_stable_sort(grid.reshape(-1, 2), k)
    # few distinct positions: ties at every rank
    _assert_nearest_matches_stable_sort(
        rng.integers(0, 3, size=(25, 2)).astype(float), k)


def test_nearest_ties_on_the_rounded_distance():
    # nodes 1 and 2 lie at different squared distances from node 0 whose
    # square roots round to the same distance: a tie, which goes to node
    # 1, although node 2 is nearer before the square root
    pos = np.array([[0.5, 0.5], [0.4612061875836073, 0.7974811592659301],
                    [0.6637881060959387, 0.7513433036734924], [0.9, 0.1]])
    d = pos[0] - pos[1:3]
    squared = (d * d).sum(axis=1)
    assert squared[1] < squared[0] and np.sqrt(squared[0]) == np.sqrt(squared[1])
    for k in (1, 2, 3):
        _assert_nearest_matches_stable_sort(pos, k)
    assert _kernels.knn(pos, 1)[0][0].tolist() == [0, 1]


@pytest.mark.parametrize("n", [2, 3, 9])
def test_nearest_keeps_every_node_at_k_n_minus_1(n):
    rng = np.random.default_rng(n)
    _assert_nearest_matches_stable_sort(rng.random((n, 2)), n - 1)
    # all points in one place: every row is 0..n-1, the node itself
    # among its twins
    _assert_nearest_matches_stable_sort(np.full((n, 2), 0.5), n - 1)
    _assert_nearest_matches_stable_sort(np.full((n, 2), 0.5), 0)
    for k in (-1, n):
        with pytest.raises(ValueError, match="0 <= k < n"):
            _kernels.knn(np.full((n, 2), 0.5), k)


def _components_by_bfs(n, rows, cols):
    neighbours = {i: set() for i in range(n)}
    for i, j in zip(rows.tolist(), cols.tolist()):
        neighbours[i].add(j)
        neighbours[j].add(i)
    seen, frontier = {0}, [0]
    while frontier:
        for j in neighbours[frontier.pop()] - seen:
            seen.add(j)
            frontier.append(j)
    return len(seen) == n


@pytest.mark.parametrize("seed", range(40))
def test_is_connected_matches_bfs_on_edge_lists(seed):
    # draws near the connectivity threshold, each edge listed once in a
    # random direction, some listed twice
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    p = 1.25 * math.log(n + 1) / n
    rows, cols = np.nonzero(np.triu(rng.random((n, n)) < p, 1))
    flip = rng.random(len(rows)) < 0.5
    rows, cols = np.where(flip, cols, rows), np.where(flip, rows, cols)
    twice = rng.random(len(rows)) < 0.2
    rows, cols = (np.concatenate([rows, cols[twice]]),
                  np.concatenate([cols, rows[twice]]))
    assert _is_connected(n, rows, cols) == _components_by_bfs(n, rows, cols)


def test_components_counts_isolated_nodes_and_checks_endpoints():
    assert _kernels.components(5, [], []) == 5
    assert _kernels.components(5, [0, 3, 2], [1, 4, 3]) == 2
    assert _kernels.components(4, [3, 2, 1], [2, 1, 0]) == 1
    for rows, cols in (([0], [3]), ([-1], [2])):
        with pytest.raises(ValueError, match="out of range"):
            _kernels.components(3, rows, cols)
    with pytest.raises(ValueError, match="one length"):
        _kernels.components(3, [0, 1], [2])


_SCIPY_MODULES_OF_A_RUN = """
import sys
import gsample
from gsample.bench import parse_spec_text, run_experiment
spec = parse_spec_text(
    "study = rmse_vs_size\\ngraph = G1\\nsignal = GS1\\nn = 24\\nK = 4\\n"
    "methods = fagod, agod\\nsweep = 4, 8\\ntrials = 2\\nbase_seed = 7\\n")
run_experiment(spec, threads=1)
from gsample.oracle import LoadedGramState
LoadedGramState(gsample.rng_from(3).random((6, 2)), 0.5).add(0)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
import scipy.linalg
dsyevr = gsample.spectral._flapack.dsyevr
print(scipy.linalg._flapack.dsyevr is dsyevr,
      scipy.linalg.lapack.dsyevr is dsyevr)
"""


def test_import_loads_no_scipy_sparse():
    # the connectivity check is compiled, so the package needs no sparse
    # matrices, the subset eigensolve calls scipy's LAPACK extension
    # alone, and the reference states update U with numpy, so neither a
    # run nor a state step leaves a scipy module loaded; a later import
    # of scipy.linalg sets its _flapack, which holds the same routines.
    # Checked in a process of its own, which imports nothing else
    root = Path(bench.__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_MODULES_OF_A_RUN],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "True True"]


def test_sensor_determinism():
    a = gen_sensor(10, 6, seed=3)
    b = gen_sensor(10, 6, seed=3)
    assert np.array_equal(dense_adjacency(a), dense_adjacency(b))


def test_er_complete_graph():
    g = gen_er(4, 1.0, seed=0)
    expected = np.ones((4, 4)) - np.eye(4)
    assert np.array_equal(dense_adjacency(g), expected)


def test_er_edge_count_binomial_bound():
    n, p = 400, 0.05
    g = gen_er(n, p, seed=1)
    pairs = n * (n - 1) // 2
    edges = np.count_nonzero(np.triu(dense_adjacency(g), k=1))
    mean = pairs * p
    sd = math.sqrt(pairs * p * (1 - p))
    assert abs(edges - mean) <= 4 * sd


def test_er_determinism_and_validation():
    assert np.array_equal(dense_adjacency(gen_er(30, 0.2, seed=9)),
                          dense_adjacency(gen_er(30, 0.2, seed=9)))
    with pytest.raises(ValueError):
        gen_er(10, 0.0, seed=0)
    with pytest.raises(ValueError):
        gen_er(10, 1.5, seed=0)


def test_community_counts():
    g = gen_community(400, seed=0)
    assert g.meta["communities"] == 10
    small = gen_community(16, seed=0)
    assert small.meta["communities"] == 2
    assert all(s >= 2 for s in small.meta["sizes"])
    assert sum(small.meta["sizes"]) == 16


def test_community_determinism():
    a = gen_community(32, seed=4)
    b = gen_community(32, seed=4)
    assert np.array_equal(dense_adjacency(a), dense_adjacency(b))
    with pytest.raises(ValueError):
        gen_community(7, seed=0)


@pytest.mark.parametrize("model,make", [
    ("sensor", lambda: gen_sensor(20, 3, seed=5)),
    ("er", lambda: gen_er(20, 0.5, seed=5)),
    ("community", lambda: gen_community(20, seed=5)),
])
def test_generators_give_up_after_max_connect_attempts(monkeypatch, model,
                                                       make):
    seeds = []
    monkeypatch.setattr(graphs, "_is_connected", lambda n, rows, cols: False)
    monkeypatch.setattr(graphs, "rng_from",
                        lambda seed: seeds.append(seed) or rng_from(seed))
    with pytest.raises(RuntimeError, match=rf"^no connected {model} graph in "
                       rf"{MAX_CONNECT_ATTEMPTS} attempts \(n=20\)$"):
        make()
    assert seeds == list(range(5, 5 + MAX_CONNECT_ATTEMPTS))


@pytest.mark.parametrize("make", [
    lambda: gen_sensor(12, 4, seed=2),
    lambda: gen_er(15, 0.3, seed=2),
    lambda: gen_community(20, seed=2),
])
def test_generated_laplacians_are_psd_with_zero_row_sums(make):
    lap = build_laplacian(make())
    assert np.abs(lap.matrix.sum(axis=1)).max() <= 1e-12
    assert np.linalg.eigvalsh(lap.matrix).min() >= -1e-10


def test_edge_list_round_trip(tmp_path):
    adj = np.array([[0.0, 1.0, 0.25], [1.0, 0.0, 2.0], [0.25, 2.0, 0.0]])
    g = graph_from_adjacency(adj)
    path = tmp_path / "k3.txt"
    save_graph(g, path)
    loaded = load_graph(path)
    assert loaded.n == 3
    assert np.array_equal(dense_adjacency(loaded), dense_adjacency(g))


def test_edge_list_round_trip_generated(tmp_path):
    g = gen_sensor(9, 4, seed=13)
    path = tmp_path / "sensor.txt"
    save_graph(g, path)
    assert np.array_equal(dense_adjacency(load_graph(path)),
                          dense_adjacency(g))


def test_edge_list_comments_ignored(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a comment\n0 1 1.0\n\n1 2 0.5\n", encoding="utf-8")
    g = load_graph(path)
    assert g.n == 3
    assert dense_adjacency(g)[1, 2] == 0.5


@pytest.mark.parametrize("line,match", [
    ("0 0 1.0", "self-loop"),
    ("0 1 -2", "negative weight"),
    ("1 0 1.0", "0 <= i < j"),
    ("0 1", "expected"),
    ("0 1 abc", "unparsable"),
    ("0 1 inf", ":1: non-finite weight 'inf'"),
    ("0 1 nan", ":1: non-finite weight 'nan'"),
    ("0 1 1e400", ":1: non-finite weight '1e400'"),
])
def test_edge_list_rejects_bad_lines(tmp_path, line, match):
    path = tmp_path / "bad.txt"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        load_graph(path)


def test_edge_list_lines_in_any_order_and_zero_weights(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2 0.5\n0 3 0.0\n0 2 1.0\n0 1 2.0\n", encoding="utf-8")
    graph = load_graph(path)
    # a zero weight is no edge, but its node counts
    assert graph.n == 4 and graph.edge_count == 3
    assert graph.rows.tolist() == [0, 0, 1]
    assert graph.cols.tolist() == [1, 2, 2]
    assert graph.weights.tolist() == [2.0, 1.0, 0.5]


def test_edge_list_rejects_duplicates_and_out_of_range(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("0 1 1.0\n0 1 2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        load_graph(path)
    path.write_text("0 5 1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="out of range"):
        load_graph(path, n=3)
