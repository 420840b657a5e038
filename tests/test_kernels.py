"""The compiled filter kernels against their numpy references.

`greedy_jacobi` and `GivensSeq.to_matrix` run in C; `gsample.oracle`
keeps the numpy loops they replaced.  The kernels repeat the references'
arithmetic term by term, so every comparison here is exact: the same
(p, q) sequence, bitwise-equal angles, eigenvalues and rotation products.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsample import (Graph, GivensSeq, Laplacian, build_laplacian,
                     gen_community, gen_er, gen_sensor, greedy_jacobi,
                     rotation_budget)
from gsample import _kernels
from gsample.oracle import givens_matrix_reference, greedy_jacobi_reference


def _graph(model, n, seed):
    if model == "G1":
        return gen_sensor(n, min(6, n - 1), seed)
    if model == "G2":
        return gen_er(n, min(1.0, 8.0 / n), seed)
    return gen_community(n, seed)


def _thetas(rotations):
    return np.array([theta for _, _, theta in rotations], dtype=float)


def assert_matches_reference(lap, J):
    seq, eigs, perm = greedy_jacobi(lap, J)
    ref_rotations, ref_eigs, ref_perm = greedy_jacobi_reference(lap, J)
    assert [r[:2] for r in seq.rotations] == [r[:2] for r in ref_rotations]
    assert _thetas(seq.rotations).tobytes() == _thetas(ref_rotations).tobytes()
    assert eigs.tobytes() == ref_eigs.tobytes()
    assert np.array_equal(perm, ref_perm)
    reference_q = givens_matrix_reference(seq.n, ref_rotations)
    assert seq.to_matrix().tobytes() == reference_q.tobytes()
    return seq


# the community model needs n >= 8, so G3 starts at n = 16
@pytest.mark.parametrize("model,n", [("G1", 2), ("G2", 2), ("G1", 16),
                                     ("G2", 16), ("G3", 16), ("G1", 200),
                                     ("G2", 200), ("G3", 200)])
def test_sweep_and_product_match_reference(model, n):
    lap = build_laplacian(_graph(model, n, seed=n))
    for J in (0, 1, rotation_budget(n), 10_000):
        seq = assert_matches_reference(lap, J)
        assert seq.count <= J
    if n <= 16:
        # 10,000 rotations reach the tolerance on small graphs
        assert seq.count < 10_000


def test_diagonal_matrix_stops_at_once():
    lap = Laplacian(np.diag([3.0, 1.0, 2.0]), np.array([3.0, 1.0, 2.0]))
    assert assert_matches_reference(lap, 10).count == 0


def test_unit_cycle_ties_follow_reference():
    # every off-diagonal magnitude starts at exactly 1
    n = 9
    adjacency = np.zeros((n, n))
    for i in range(n):
        adjacency[i, (i + 1) % n] = adjacency[(i + 1) % n, i] = 1.0
    lap = build_laplacian(Graph(n, adjacency))
    seq = assert_matches_reference(lap, 10_000)
    assert seq.rotations[0][:2] == (0, 1)


# Equal diagonals make every angle pi/4, so a rotation can raise an entry
# in column p (first matrix) or q (second) to exactly its row's cached
# maximum, left of it; the row must be refreshed so that the tie goes to
# the smaller column.
@pytest.mark.parametrize("upper", [
    [[0, -1, -1, 1], [1, -1, 1], [-1, -1], [1]],
    [[0, 1, 0, 1, -1, 0], [0, 0, -1, 0, 1], [-1, 1, 0, -1], [0, 1, 1],
     [0, 0], [0]],
])
def test_entry_raised_to_cached_row_max_follows_reference(upper):
    n = len(upper) + 1
    matrix = 2.0 * np.eye(n)
    for i, row in enumerate(upper):
        matrix[i, i + 1:] = matrix[i + 1:, i] = row
    assert_matches_reference(Laplacian(matrix, np.diag(matrix)), 40)


def test_sweep_continues_across_output_chunks(monkeypatch):
    monkeypatch.setattr(_kernels, "_CHUNK", 7)
    lap = build_laplacian(gen_sensor(16, 6, seed=4))
    assert assert_matches_reference(lap, 10_000).count > 7


@st.composite
def _symmetric_with_ties(draw):
    n = draw(st.integers(2, 7))
    values = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 2.0])
    upper = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n)))
    upper = np.triu(upper.reshape(n, n))
    return upper + np.triu(upper, 1).T


@settings(max_examples=150, deadline=None)
@given(_symmetric_with_ties(), st.integers(0, 60))
def test_small_symmetric_matrices_match_reference(matrix, J):
    assert_matches_reference(Laplacian(matrix, np.diag(matrix)), J)


def _outputs(lap, J):
    seq, eigs, perm = greedy_jacobi(lap, J)
    return (seq.rotations, _thetas(seq.rotations).tobytes(), eigs.tobytes(),
            perm.tobytes(), seq.to_matrix().tobytes())


def test_concurrent_calls_match_serial():
    laps = [build_laplacian(gen_sensor(120, 6, seed=s)) for s in range(3)]
    J = rotation_budget(120)
    serial = [_outputs(lap, J) for lap in laps]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_outputs, lap, J) for lap in laps * 3]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == serial * 3


@pytest.mark.parametrize("matrix,message", [
    (np.zeros((2, 3)), "square"),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite"),
    (np.array([[1.0, -np.inf], [-np.inf, 1.0]]), "non-finite"),
    (np.array([[1.0, -1.0], [np.nextafter(-1.0, 0.0), 1.0]]), "symmetric"),
])
def test_bad_input_fails_loudly(matrix, message):
    with pytest.raises(ValueError, match=message):
        greedy_jacobi(Laplacian(matrix, np.ones(matrix.shape[0])), 5)


def test_givens_seq_names_first_bad_plane():
    with pytest.raises(ValueError,
                       match=r"rotation plane \(2, 2\) out of range for n=4"):
        GivensSeq(4, ((0, 1, 0.1), (2, 2, 0.3), (3, 1, 0.0)))
    seq = GivensSeq(4, [(np.int64(0), 3.0, np.float32(0.5))])
    assert seq.rotations == ((0, 3, 0.5),)
    assert all(type(v) is t for v, t in zip(seq.rotations[0], (int, int, float)))
