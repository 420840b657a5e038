import numpy as np
import pytest

from gsample import Graph, build_laplacian, eigendecompose, gen_sensor


def graph_from_adjacency(adjacency):
    """The Graph of a symmetric dense adjacency matrix: its nonzero
    strict upper triangle in (i, j) order, so that zeros, -0.0 among
    them, are no edges."""
    adj = np.asarray(adjacency, dtype=float)
    assert np.array_equal(adj, adj.T)
    rows, cols = np.nonzero(np.triu(adj, 1))
    return Graph(len(adj), rows, cols, adj[rows, cols])


@pytest.fixture(scope="session")
def path2():
    """Two-node path graph objects: (graph, laplacian, basis)."""
    g = graph_from_adjacency([[0.0, 1.0], [1.0, 0.0]])
    lap = build_laplacian(g)
    return g, lap, eigendecompose(lap)


@pytest.fixture(scope="session")
def sensor8():
    """Small sensor graph reused across tests: (graph, laplacian, basis)."""
    g = gen_sensor(8, 5, seed=11)
    lap = build_laplacian(g)
    return g, lap, eigendecompose(lap)


@pytest.fixture(scope="session")
def sensor10():
    g = gen_sensor(10, 6, seed=5)
    lap = build_laplacian(g)
    return g, lap, eigendecompose(lap)


@pytest.fixture(params=["C", "F", "slice"])
def layout_factors(request):
    """Random 120 x K factors, K = 2..39, all in one memory layout: C
    order, Fortran order, or a column slice of a wider array."""
    rng = np.random.default_rng(11)
    factors = []
    for K in range(2, 40):
        wide = rng.standard_normal((120, K + 3))
        factors.append({"C": wide[:, :K].copy(),
                        "F": np.asfortranarray(wide[:, :K]),
                        "slice": wide[:, :K]}[request.param])
    return factors
