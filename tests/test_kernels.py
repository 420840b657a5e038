"""The compiled Jacobi kernels against their numpy references.

`greedy_jacobi` and the rotation product `_kernels.rotate_rows` run in C;
`gsample.oracle` keeps the definitions they reproduce.  The kernels
repeat the references' arithmetic term by term, so every comparison here
is exact: the same (p, q) sequence and bitwise-equal angles, eigenvalues
and rotation products.  The greedy selection passes run in C too, with
the agod and fagod argmin scans inside them: the scans are checked here,
through `_kernels.greedy_pass`, against np.argmin of the loaded-Gram
states of `gsample.oracle`, and test_selection.py holds all four passes
to those states.  The k-NN kernel of `gen_sensor` is checked in
test_graphs.py, and the seed hash of `rng_from` in test_rng.py.  The
leverage draw is checked here at the edges of numpy's cumulative sums,
where a sum one ulp off would pick another node.
"""

import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_adjacency
from gsample import (GivensSeq, approximate_lowpass, build_laplacian,
                     eigendecompose, gen_community, gen_er, gen_sensor,
                     greedy_jacobi, greedy_select, rotation_budget)
from gsample import _kernels
from gsample.filters import OFFDIAG_TOL, _greedy_jacobi
from gsample.oracle import (FactoredFagodState, LoadedGramState,
                            givens_matrix_reference, greedy_jacobi_reference)


def _graph(model, n, seed):
    if model == "G1":
        return gen_sensor(n, min(6, n - 1), seed)
    if model == "G2":
        return gen_er(n, min(1.0, 8.0 / n), seed)
    return gen_community(n, seed)


def _thetas(rotations):
    return np.array([theta for _, _, theta in rotations], dtype=float)


def _product_bytes(seq):
    # the kernel applies the rotations in order to the rows of Q^T = I
    q_t = np.eye(seq.n)
    _kernels.rotate_rows(q_t, seq.planes, seq.thetas)
    return q_t.T.tobytes()


def _packed(matrix):
    """Fresh copies of the strict upper triangle of a square matrix,
    packed row by row, and of its diagonal: the pair the sweep rotates."""
    matrix = np.asarray(matrix, dtype=float)
    return (matrix[np.triu_indices(len(matrix), 1)].copy(),
            np.diag(matrix).copy())


def assert_matches_reference(lap, J):
    """`greedy_jacobi` on a graph's Laplacian against the reference on
    its dense array."""
    return _assert_sweep_is_reference(greedy_jacobi(lap, J), lap.dense(), J)


def assert_packed_sweep_matches_reference(matrix, J):
    """The sweep on `_packed(matrix)`, for a symmetric matrix that need
    not be a graph's Laplacian, against the reference on matrix."""
    return _assert_sweep_is_reference(
        _greedy_jacobi(*_packed(matrix), J), matrix, J)


def _assert_sweep_is_reference(sweep, matrix, J):
    seq, eigs, perm = sweep
    ref_rotations, ref_eigs, ref_perm = greedy_jacobi_reference(matrix, J)
    assert [r[:2] for r in seq.rotations] == [r[:2] for r in ref_rotations]
    assert {tuple(map(type, r)) for r in seq.rotations} <= {(int, int, float)}
    assert _thetas(seq.rotations).tobytes() == _thetas(ref_rotations).tobytes()
    assert eigs.tobytes() == ref_eigs.tobytes()
    assert np.array_equal(perm, ref_perm)
    reference_q = givens_matrix_reference(seq.n, ref_rotations)
    assert _product_bytes(seq) == reference_q.tobytes()
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


def test_sweep_at_n400_matches_reference():
    # default budget only: the reference replays 6,245 rotations here
    lap = build_laplacian(_graph("G1", 400, seed=400))
    assert_matches_reference(lap, rotation_budget(400))


def _canaried(values):
    """values in the middle of a fresh buffer that holds a NaN on either
    side; returns the buffer and the view of values in it."""
    buffer = np.full(len(values) + 2, np.nan)
    buffer[1:-1] = values
    return buffer, buffer[1:-1]


@pytest.mark.parametrize("model", ["G1", "G2", "G3"])
def test_sweep_stays_inside_its_packed_buffers(model, monkeypatch):
    # a NaN canary just before and after the packed triangle and the
    # diagonal must survive the sweep; a sweep split over several calls,
    # down to one rotation per call, carries only the diagonal and the
    # triangle across them and ends bitwise where one call ends
    n = 60
    lap = build_laplacian(_graph(model, n, seed=n))
    J = rotation_budget(n)
    ref_rotations, ref_eigs, ref_perm = greedy_jacobi_reference(
        lap.dense(), J)
    assert len(ref_rotations) > 97
    runs = []
    for chunk in (_kernels._CHUNK, 97, 7, 1):
        monkeypatch.setattr(_kernels, "_CHUNK", chunk)
        upper_buffer, upper = _canaried(lap.packed_upper())
        diag_buffer, diag = _canaried(lap.diagonal())
        planes, thetas = _kernels.greedy_jacobi_sweep(upper, diag, J,
                                                      OFFDIAG_TOL)
        for buffer in (upper_buffer, diag_buffer):
            assert np.isnan(buffer[[0, -1]]).all()
        assert not np.isnan(upper).any() and not np.isnan(diag).any()
        assert [tuple(pq) for pq in planes.tolist()] == \
            [r[:2] for r in ref_rotations]
        assert thetas.tobytes() == _thetas(ref_rotations).tobytes()
        assert diag[ref_perm].tobytes() == ref_eigs.tobytes()
        runs.append((planes.tobytes(), thetas.tobytes(), upper.tobytes(),
                     diag.tobytes()))
    assert runs == [runs[0]] * len(runs)


def test_sweep_rejects_a_one_node_pair():
    # at n = 1 the pivot tree has no row for its root to name
    with pytest.raises(ValueError, match="n >= 2"):
        _kernels.greedy_jacobi_sweep(np.empty(0), np.ones(1), 5, OFFDIAG_TOL)


def test_zero_budget_sweep_returns_empty_outputs_and_leaves_the_pair():
    lap = build_laplacian(_graph("G1", 16, seed=16))
    upper, diag = lap.packed_upper(), lap.diagonal()
    planes, thetas = _kernels.greedy_jacobi_sweep(upper, diag, 0,
                                                  OFFDIAG_TOL)
    assert planes.shape == (0, 2) and planes.dtype == np.int64
    assert thetas.shape == (0,) and thetas.dtype == np.float64
    assert upper.tobytes() == lap.packed_upper().tobytes()
    assert diag.tobytes() == lap.diagonal().tobytes()


def test_diagonal_matrix_stops_at_once():
    matrix = np.diag([3.0, 1.0, 2.0])
    assert assert_packed_sweep_matches_reference(matrix, 10).count == 0


def test_unit_cycle_ties_follow_reference():
    # every off-diagonal magnitude starts at exactly 1
    n = 9
    adjacency = np.zeros((n, n))
    for i in range(n):
        adjacency[i, (i + 1) % n] = adjacency[(i + 1) % n, i] = 1.0
    lap = build_laplacian(graph_from_adjacency(adjacency))
    seq = assert_matches_reference(lap, 10_000)
    assert seq.rotations[0][:2] == (0, 1)


# Equal diagonals make every angle pi/4, so a rotation can raise an entry
# to exactly its row's cached maximum, left of it: in column p of a row
# above p (first matrix), in column q of a row between p and q (second) or
# above p (third).  The row must be refreshed so that the tie goes to the
# smaller column.
@pytest.mark.parametrize("upper", [
    [[0, -1, -1, 1], [1, -1, 1], [-1, -1], [1]],
    [[0, 1, 0, 1, -1, 0], [0, 0, -1, 0, 1], [-1, 1, 0, -1], [0, 1, 1],
     [0, 0], [0]],
    [[0, 1, 1, 1, 1], [-1, -1, 0, 1], [1, -1, -1], [1, 0], [-1]],
])
def test_entry_raised_to_cached_row_max_follows_reference(upper):
    n = len(upper) + 1
    matrix = 2.0 * np.eye(n)
    for i, row in enumerate(upper):
        matrix[i, i + 1:] = matrix[i + 1:, i] = row
    assert_packed_sweep_matches_reference(matrix, 40)


def _matrix(diag, upper):
    matrix = np.diag(np.asarray(diag, dtype=float))
    for i, row in enumerate(upper):
        matrix[i, i + 1:] = matrix[i + 1:, i] = row
    return matrix


def _landing(v, x, c, s):
    """A float y with s * x + c * y == v exactly, as the kernel rounds it:
    entry (x, y) of columns (p, q) lands on v after the rotation."""
    y = (v - s * x) / c
    for _ in range(64):
        if s * x + c * y == v:
            return y
        y = np.nextafter(y, np.inf if s * x + c * y < v else -np.inf)
    raise AssertionError("no landing value")


def _small_angle(w_pq, gap):
    # a pivot far below the diagonal gap rotates by a tiny angle, so an
    # entry keeps its magnitude, or can be made to land on one exactly
    theta = 0.5 * math.atan2(2.0 * w_pq, gap)
    return math.cos(theta), math.sin(theta)


def _cached_p_ties_itself():
    # row 0 peaks at 0.5 in columns 1 and 2; the rotation in (1, 3) has
    # cos == 1 and w[0, 3] == 0, so w[0, 1] stays exactly 0.5 and keeps
    # the row's first maximum
    c, _ = _small_angle(1.0, 1e9)
    assert c == 1.0
    return _matrix([0.0, 0.0, 0.0, 1e9], [[0.5, 0.5, 0.0], [0.0, 1.0], [0.0]])


def _q_ties_right_of_cached_p():
    # row 0 peaks at 0.5 in columns 1 and 2; the rotation in (1, 3) drops
    # w[0, 1] below 0.5 and lands w[0, 3] on it, so the row is rescanned
    # and column 2 keeps the maximum
    c, s = _small_angle(1.0, 1e6)
    y = _landing(0.5, 0.5, c, s)
    assert abs(c * 0.5 - s * y) < 0.5
    return _matrix([0.0, 0.0, 0.0, 1e6], [[0.5, 0.5, y], [0.0, 1.0], [0.0]])


def _middle_row_tied_from_left():
    # row 1 peaks at 0.5 in column 3; the rotation in (0, 2) lands w[1, 2]
    # on 0.5, left of it, and row 1 is the next pivot row
    c, s = _small_angle(1.0, 1e6)
    y = _landing(0.5, 0.5, c, s)
    return _matrix([0.0, 0.0, 1e6, 0.0], [[0.5, 1.0, 0.0], [y, 0.5], [0.0]])


# After a rotation in (p, q), the cached first maximum of a row above q is
# settled from its new entries in columns p and q, and the row is rescanned
# only when that cannot decide.  A row above p ("top") changes in both
# columns, a row between p and q ("middle") only in column q.  Each witness
# takes the named branch within its first few rotations; a wrong settle
# moves a later pivot.
@pytest.mark.parametrize("matrix", [
    _matrix([2.0] * 4, [[-0.5, 0.0, 0.0], [-0.5, -0.5], [-1.0]]),
    _matrix([2.0, 3.0, 1.0], [[-0.5, -1.0], [0.0]]),
    _cached_p_ties_itself(),
    _matrix([2.0] * 3, [[0.5, 0.5], [1.0]]),
    _matrix([1.0, 3.0, 3.0, 3.0, 3.0],
            [[1.0, 0.5, -1.0, 0.0], [0.0, 0.5, -0.5], [0.0, 0.5], [0.0]]),
    _matrix([2.0] * 4, [[0.5, 0.0, 0.5], [-1.0, 0.0], [0.0]]),
    _matrix([2.0] * 4, [[0.0, -1.0, 0.0], [0.5, -0.5], [0.0]]),
    _q_ties_right_of_cached_p(),
    _matrix([2.0] * 4, [[-0.5, -0.5, 0.5], [0.0, 0.0], [1.0]]),
    _matrix([2.0, 3.0, 1.0, 2.0], [[-0.5, -0.5, -0.5], [0.0, 0.0], [1.0]]),
    _matrix([1.0, 2.0, 2.0, 2.0], [[-0.5, 0.0, -1.0], [-1.0, 1.0], [0.0]]),
    _matrix([2.0] * 5, [[0.5, -0.5, 0.0, 1.0], [0.5, -0.5, 0.5], [1.0, -0.5],
                        [0.0]]),
    _matrix([2.0] * 5, [[0.5, -1.0, -0.5, 0.0], [0.0, 0.0, 0.5], [0.5, 1.0],
                        [1.0]]),
    _middle_row_tied_from_left(),
], ids=[
    "top-cached-rises", "middle-cached-rises", "top-cached-p-ties-itself",
    "top-cached-falls-other-beats", "top-cached-q-falls-p-ties-from-left",
    "top-cached-falls-rescan", "middle-cached-falls-rescan",
    "top-cached-p-falls-q-ties-right-rescan", "top-untouched-beaten-at-p",
    "top-untouched-beaten-at-q", "middle-untouched-beaten-at-q",
    "top-untouched-tied-from-left-at-p", "top-untouched-tied-from-left-at-q",
    "middle-untouched-tied-from-left-at-q",
])
def test_settled_row_maxima_follow_reference(matrix):
    assert_packed_sweep_matches_reference(matrix, 40)


# The pivot row comes from a tournament tree over the n - 1 row maxima,
# padded to a power of two; ties go to the first row.  Sizes at and just
# past a power of two, on a graph and on a matrix full of tied maxima.
@pytest.mark.parametrize("n", [2, 3, 17, 18, 33, 34])
def test_pivot_tree_sizes_match_reference(n):
    assert_matches_reference(build_laplacian(_graph("G1", n, seed=n)),
                             rotation_budget(n))
    rng = np.random.default_rng(n)
    upper = np.triu(rng.choice([0.0, 1.0, -1.0, 0.5, -0.5], size=(n, n)), 1)
    assert_packed_sweep_matches_reference(
        upper + upper.T + 2.0 * np.eye(n), 4 * n)


# The row maximum is found in two passes: four running maxima over blocks
# of four entries plus a scalar tail, then the first column that equals
# the maximum.  Each witness puts equal magnitudes (mixed signs) at the
# given offsets past the diagonal of one row, which holds the largest
# entry of the matrix, so the first rotation shows that row's pick: the
# first of the tied columns.  Offset o of a row is in lane o % 4 unless it
# falls in the tail.
@pytest.mark.parametrize("n,row,offsets", [
    (13, 0, (1, 6)),        # lanes 1 and 2
    (13, 0, (3, 4)),        # lane 3, then lane 0 of the next block
    (13, 0, (2, 5, 9)),     # lanes 2, 1, 1
    (11, 0, (8, 9)),        # both in the tail of a row of length 10
    (11, 0, (5, 9)),        # body, then tail
    (11, 0, (9,)),          # the maximum only in the tail
    (13, 0, (0, 7)),        # the first column, then lane 3
    (13, 0, (0, 11)),       # the first and the last column
    (10, 8, (0,)),          # row of length 1
    (10, 7, (0, 1)),        # length 2
    (10, 6, (0, 2)),        # length 3
    (10, 6, (2,)),
    (10, 5, (1, 3)),        # length 4: one block, no tail
    (10, 5, (3,)),
    (10, 4, (0, 4)),        # length 5: one block and a tail of one
    (10, 4, (4,)),
])
def test_row_max_ties_go_to_the_first_column(n, row, offsets):
    matrix = 2.0 * np.eye(n)
    upper = np.triu_indices(n, 1)
    matrix[upper] = 0.1
    for k, offset in enumerate(offsets):
        matrix[row, row + 1 + offset] = (-1.0) ** k
    matrix = np.triu(matrix) + np.triu(matrix, 1).T
    seq = assert_packed_sweep_matches_reference(matrix, 5)
    assert seq.rotations[0][:2] == (row, row + 1 + offsets[0])


_NAN_ROWS = """
import numpy as np
from gsample import _kernels

def packed(matrix):
    return (matrix[np.triu_indices(len(matrix), 1)].copy(),
            np.diag(matrix).copy())

for first, expected in ((np.nan, 1), (0.5, 3)):
    w = 2.0 * np.eye(9)
    w[0, 1:] = [first, np.nan, 1.0, 0.25, -1.0, 0.5, 1.0, 0.25]
    planes, _ = _kernels.greedy_jacobi_sweep(*packed(w), 1, 1e-12)
    print(planes.tolist() == [[0, expected]])
"""


def test_row_max_with_nan_stays_in_its_row():
    # NaN never enters the maximum unless it sits in the row's first
    # column; then the maximum is NaN, equals no entry, and the first
    # column stands.  Runs in a child process, on the pair that
    # `_packed` writes: a second pass that ran past the row would read
    # the rows packed after it and then out of bounds.
    src = str(Path(_kernels.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _NAN_ROWS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]


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
    assert_packed_sweep_matches_reference(matrix, J)


def _outputs(lap, J):
    seq, eigs, perm = greedy_jacobi(lap, J)
    return (seq.rotations, _thetas(seq.rotations).tobytes(), eigs.tobytes(),
            perm.tobytes(), _product_bytes(seq))


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


def test_givens_seq_names_first_bad_plane():
    with pytest.raises(ValueError,
                       match=r"rotation plane \(2, 2\) out of range for n=4"):
        GivensSeq(4, np.array([[0, 1], [2, 2], [3, 1]]),
                  np.array([0.1, 0.3, 0.0]))
    for planes in ([[1, 0]], [[-1, 2]], [[0, 4]]):
        with pytest.raises(ValueError, match="out of range for n=4"):
            GivensSeq(4, np.array(planes), np.array([0.5]))
    seq = GivensSeq(4, np.array([[0, 3]]), np.array([0.5]))
    assert seq.rotations == ((0, 3, 0.5),)
    assert all(type(v) is t for v, t in zip(seq.rotations[0], (int, int, float)))
    assert not seq.planes.flags.writeable and not seq.thetas.flags.writeable


@pytest.mark.parametrize("planes,thetas", [
    (np.array([[0, 1], [1, 2]]), np.array([0.1])),
    (np.array([[0, 1]]), np.array([0.1, 0.2])),
    (np.array([0, 1]), np.array([0.1])),
    (np.empty((0, 2)), np.array([0.1])),
])
def test_givens_seq_rejects_mismatched_arrays(planes, thetas):
    with pytest.raises(ValueError, match=r"need \(m, 2\) planes and m angles"):
        GivensSeq(4, planes, thetas)


def test_build_removes_stale_builds(tmp_path, monkeypatch):
    monkeypatch.setattr(_kernels, "_CACHE", tmp_path)
    stale = tmp_path / "_kernels-0123456789abcdef.so"
    stale.write_bytes(b"")
    other = tmp_path / "notes.txt"
    other.write_text("kept")
    lib = _kernels._build()
    assert sorted(tmp_path.iterdir()) == sorted([lib, other])


def test_kernel_builds_without_warnings(tmp_path):
    # bit-identity with the numpy references needs every product rounded
    # on its own, so no contraction into FMAs and no value-changing
    # optimisation
    assert "-ffp-contract=off" in _kernels._FLAGS
    assert not {"-ffast-math", "-Ofast", "-march=native"} & set(_kernels._FLAGS)
    done = subprocess.run(
        ["gcc", *_kernels._FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "kernels.so"), str(_kernels._SOURCE), "-lm"],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# greedy argmin scans, run by the kernel's greedy_pass


_STATES = {"agod": LoadedGramState, "fagod": FactoredFagodState}


def assert_scans_match_numpy(method, factor, mu, M, ties=False):
    """The argmin scans of one `_kernels.greedy_pass` against np.argmin of
    the numpy state's `candidate_objectives`, the state driven along the
    pass's picks; returns the picks and their objectives.

    The pass starts from the state's own arrays, so step 1's pick and
    objective are bitwise the state's.  Later steps sum their dot
    products in the kernel's order: each objective is the state's within
    1e-8 (test_selection.PASS_RTOL), and with `ties` a pick need only
    score the state's best within it."""
    picks, trace = _kernels.greedy_pass(method, factor, mu, M)
    state = _STATES[method](factor, mu)
    for step, (j, value) in enumerate(zip(picks.tolist(), trace)):
        scores = state.candidate_objectives()
        best = int(np.argmin(scores))
        assert not state._taken[j]
        if step == 0:
            assert j == best
            assert value.tobytes() == scores[best].tobytes()
        elif ties:
            assert scores[j] <= scores[best] + 1e-8 * abs(scores[best])
        else:
            assert j == best
        assert value == pytest.approx(scores[j], rel=1e-8, abs=1e-8)
        state.add(j)
    return picks.tolist(), trace.tolist()


@pytest.mark.parametrize("model", ["G1", "G2", "G3"])
@pytest.mark.parametrize("mu", [1 / 99, 1e-3, 1e-6])
def test_argmin_scans_match_numpy_on_full_passes(model, mu):
    n, K, M = 200, 10, 30
    lap = build_laplacian(_graph(model, n, 5))
    basis = eigendecompose(lap, K + 1)
    filt = approximate_lowpass(lap, K)
    exact = basis.low_frequency(K)
    for method, factor, selected in [
            ("agod", exact, greedy_select("agod", M, basis=basis, K=K, mu=mu)),
            ("fagod", exact,
             greedy_select("fagod", M, basis=basis, K=K, mu=mu)),
            ("fagod", filt.factor, greedy_select("fagod", M, filt=filt, mu=mu)),
            ("agod", filt.factor, None)]:
        picks, values = assert_scans_match_numpy(method, factor, mu, M)
        if selected is not None:
            # the public selection runs this same pass
            assert list(selected.indices) == picks
            assert list(selected.objective_trace) == values


@pytest.mark.parametrize("method", ["agod", "fagod"])
def test_argmin_scans_break_ties_by_index(method):
    # a constant column: every free node scores the same, so the picks
    # run 0, 1, 2, ...
    flat = np.full((9, 1), 1 / 3)
    picks, _ = assert_scans_match_numpy(method, flat, 0.5, 9)
    assert picks == list(range(9))
    # each row three times: twins tie at every step, and a taken twin
    # leaves the next one to win
    rng = np.random.default_rng(2)
    factor = np.repeat(rng.standard_normal((5, 3)), 3, axis=0)
    assert_scans_match_numpy(method, factor[::-1].copy(), 1e-3, 15)


def test_argmin_scans_match_numpy_on_every_layout(layout_factors):
    # the pass and the states both copy a factor to C order before numpy
    # sums g and U over it.  Were only the pass to copy, a Fortran-ordered
    # factor would move step 1's objective off the state's in its last
    # bits in 19 of these 76 checks
    for factor in layout_factors:
        for method in _STATES:
            assert_scans_match_numpy(method, factor, 1e-3, 5)


@st.composite
def _factor_with_ties(draw):
    n = draw(st.integers(1, 9))
    K = draw(st.integers(1, 4))
    values = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 1e-3, 2.0])
    rows = draw(st.lists(st.lists(values, min_size=K, max_size=K),
                         min_size=n, max_size=n))
    return np.array(rows)


@settings(max_examples=150, deadline=None)
@given(_factor_with_ties(), st.sampled_from([1e-6, 1e-3, 1 / 99, 1.0]),
       st.sampled_from(sorted(_STATES)))
def test_argmin_scans_match_numpy_on_small_factors(factor, mu, method):
    # mirror-image rows tie in exact arithmetic, and after step 1 the
    # kernel's summation order may break such a tie the other way
    picks, _ = assert_scans_match_numpy(method, factor, mu, len(factor),
                                        ties=True)
    assert sorted(picks) == list(range(len(factor)))


@pytest.mark.parametrize("poke", ["factor", "own"])
def test_non_finite_candidate_fails_loudly(poke):
    # straight to the kernel, past selection's check of the factor: a NaN
    # entry of agod's factor reaches U and g; in fagod a row whose g_j
    # overflows gives o_j = 1 / (mu (1 + g_j)) = 0, which is finite, so
    # only the check on g_j itself catches it
    factor = np.random.default_rng(0).standard_normal((12, 3))
    factor[7, 2] = np.nan if poke == "factor" else 1e160
    method = "agod" if poke == "factor" else "fagod"
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="not finite at step 1"):
        _kernels.greedy_pass(method, factor, 1e-3, 5)


def test_agod_scan_rejects_a_non_finite_g():
    # g_2 = 2e308 overflows to inf while u_2k^2 = 1e308 stays finite, so
    # every term of node 2 reads diag_k - u_2k^2 / inf = diag_k, which is
    # finite: only the check on 1 + g_j catches it
    factor = np.full((4, 2), 0.5)
    picks, trace = _kernels.greedy_pass("agod", factor, 1.0, 1)
    assert (picks.tolist(), trace.tolist()) == ([0], [1.0 - 0.25 / 1.5])
    factor[2] = 1e154
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="not finite"):
        _kernels.greedy_pass("agod", factor, 1.0, 1)


def _draw_at_the_edges(weights, M, rs):
    """M picks of numpy's `choice` arithmetic over the weights, each with
    a uniform on or just below an entry of that pick's normalized
    cumulative sums, and those uniforms."""
    w = np.array(weights)
    remaining = list(range(len(w)))
    picks, uniforms = [], []
    for _ in range(M):
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        u = cdf[int(rs.integers(len(w)))]
        if rs.random() < 0.5:
            u = np.nextafter(u, -np.inf)
        u = min(max(u, 0.0), np.nextafter(1.0, 0.0))  # in [0, 1)
        i = int(cdf.searchsorted(u, side="right"))
        picks.append(remaining.pop(i))
        uniforms.append(u)
        w = np.delete(w, i)
    return picks, uniforms


def test_leverage_draw_is_numpys_arithmetic_at_the_cdf_edges():
    rs = np.random.default_rng(17)
    for n in [1, 2, 5, 7, 8, 9, 16, 31, 64, 127, 128, 129, 200, 257, 700]:
        for _ in range(6):
            weights = rs.random(n) ** 4
            weights[rs.random(n) < 0.2] = 0.0
            nonzero = np.count_nonzero(weights)
            if not nonzero:
                continue
            M = int(rs.integers(1, nonzero + 1))
            picks, uniforms = _draw_at_the_edges(weights, M, rs)
            kept = weights.copy()
            got = _kernels.leverage_draw(weights, np.array(uniforms))
            assert got.tolist() == picks, (n, M)
            assert np.array_equal(weights, kept)  # the caller's copy stays
    with pytest.raises(ValueError, match="cannot draw 3 of 2"):
        _kernels.leverage_draw(np.ones(2), np.zeros(3))
