"""The compiled kernels against their numpy references.

`greedy_jacobi` and the rotation product `_kernels.rotate_rows` run in C;
`gsample.oracle` keeps the definitions they reproduce.  The greedy argmin
scans of agod and fagod (`smallest_candidate`) run in C too; the states'
`candidate_objectives` are their numpy references.  The kernels repeat
the references' arithmetic term by term, so every comparison here is
exact: the same (p, q) sequence, bitwise-equal angles, eigenvalues and
rotation products, the same picks and bitwise-equal objectives.  The
one exception is the trace of a whole compiled greedy pass, whose dot
products run in the kernel's own order; test_selection.py holds the
passes to the numpy states.  The k-NN kernel of `gen_sensor` is checked
in test_graphs.py.
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

from gsample import (FactoredFagodState, Graph, GivensSeq, Laplacian,
                     LoadedGramState, approximate_lowpass, build_laplacian,
                     eigendecompose, gen_community, gen_er, gen_sensor,
                     greedy_jacobi, greedy_select, rotation_budget)
from gsample import _kernels
from gsample.filters import OFFDIAG_TOL
from gsample.oracle import givens_matrix_reference, greedy_jacobi_reference


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


def assert_matches_reference(lap, J):
    seq, eigs, perm = greedy_jacobi(lap, J)
    ref_rotations, ref_eigs, ref_perm = greedy_jacobi_reference(lap, J)
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


@pytest.mark.parametrize("model,n", [("G1", 60), ("G2", 60), ("G3", 60)])
def test_sweep_reads_only_the_upper_triangle(model, n):
    lap = build_laplacian(_graph(model, n, seed=n))
    J = rotation_budget(n)
    full = np.array(lap.matrix)
    masked = np.array(lap.matrix)
    lower = np.tril_indices(n, -1)
    masked[lower] = np.nan
    planes, thetas = _kernels.greedy_jacobi_sweep(full, J, OFFDIAG_TOL)
    masked_planes, masked_thetas = _kernels.greedy_jacobi_sweep(masked, J,
                                                                OFFDIAG_TOL)
    assert np.array_equal(planes, masked_planes)
    assert thetas.tobytes() == masked_thetas.tobytes()
    assert np.diag(full).tobytes() == np.diag(masked).tobytes()
    # the lower triangle is never written either
    assert np.isnan(masked[lower]).all()


def test_diagonal_matrix_stops_at_once():
    lap = Laplacian(np.diag([3.0, 1.0, 2.0]))
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
    assert_matches_reference(Laplacian(matrix), 40)


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
    assert_matches_reference(Laplacian(matrix), 40)


# The pivot row comes from a tournament tree over the n - 1 row maxima,
# padded to a power of two; ties go to the first row.  Sizes at and just
# past a power of two, on a graph and on a matrix full of tied maxima.
@pytest.mark.parametrize("n", [2, 3, 17, 18, 33, 34])
def test_pivot_tree_sizes_match_reference(n):
    assert_matches_reference(build_laplacian(_graph("G1", n, seed=n)),
                             rotation_budget(n))
    rng = np.random.default_rng(n)
    upper = np.triu(rng.choice([0.0, 1.0, -1.0, 0.5, -0.5], size=(n, n)), 1)
    assert_matches_reference(Laplacian(upper + upper.T + 2.0 * np.eye(n)),
                             4 * n)


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
    seq = assert_matches_reference(Laplacian(matrix), 5)
    assert seq.rotations[0][:2] == (row, row + 1 + offsets[0])


_NAN_ROWS = """
import numpy as np
from gsample import _kernels

for first, expected in ((np.nan, 1), (0.5, 3)):
    w = 2.0 * np.eye(9)
    w[0, 1:] = [first, np.nan, 1.0, 0.25, -1.0, 0.5, 1.0, 0.25]
    planes, _ = _kernels.greedy_jacobi_sweep(w, 1, 1e-12)
    print(planes.tolist() == [[0, expected]])
"""


def test_row_max_with_nan_stays_in_its_row():
    # NaN never enters the maximum unless it sits in the row's first
    # column; then the maximum is NaN, equals no entry, and the first
    # column stands.  Runs in a child process: a second pass that ran
    # past the row would read out of bounds.
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
    assert_matches_reference(Laplacian(matrix), J)


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


@pytest.mark.parametrize("matrix,message", [
    (np.zeros((2, 3)), "square"),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite"),
    (np.array([[1.0, -np.inf], [-np.inf, 1.0]]), "non-finite"),
    (np.array([[1.0, -1.0], [np.nextafter(-1.0, 0.0), 1.0]]), "symmetric"),
])
def test_bad_input_fails_loudly(matrix, message):
    with pytest.raises(ValueError, match=message):
        greedy_jacobi(Laplacian(matrix), 5)


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
# greedy argmin scans


def _numpy_step(state):
    # the scan the kernels replace: np.argmin of the numpy objectives
    scores = state.candidate_objectives()
    j = int(np.argmin(scores))
    return j, float(scores[j])


def assert_scan_matches_numpy(state, steps):
    """Compare the compiled step with the numpy one, then take it; returns
    the picks and their objectives."""
    picks, values = [], []
    for _ in range(steps):
        want = _numpy_step(state)
        got = state.smallest_candidate()
        assert got[0] == want[0] and not state._taken[got[0]]
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
        state.add(got[0])
        picks.append(got[0])
        values.append(got[1])
    return picks, values


_STATES = {"agod": LoadedGramState, "fagod": FactoredFagodState}


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
        picks, values = assert_scan_matches_numpy(
            _STATES[method](factor, mu), M)
        if selected is not None:
            # the compiled pass: the same picks, and the traces within
            # the pass's bound, test_selection.PASS_RTOL
            assert list(selected.indices) == picks
            assert selected.objective_trace == pytest.approx(values,
                                                             rel=1e-8)


@pytest.mark.parametrize("method", ["agod", "fagod"])
def test_argmin_scans_break_ties_by_index(method):
    # a constant column: every free node scores the same, so the picks
    # run 0, 1, 2, ...
    flat = np.full((9, 1), 1 / 3)
    picks, _ = assert_scan_matches_numpy(_STATES[method](flat, 0.5), 9)
    assert picks == list(range(9))
    # each row three times: twins tie at every step, and a taken twin
    # leaves the next one to win
    rng = np.random.default_rng(2)
    factor = np.repeat(rng.standard_normal((5, 3)), 3, axis=0)
    assert_scan_matches_numpy(_STATES[method](factor[::-1].copy(), 1e-3), 15)


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
    assert_scan_matches_numpy(_STATES[method](factor, mu), len(factor))


def _first_free(state):
    return int(np.argmin(state._taken))


@pytest.mark.parametrize("poke", ["factor", "own"])
def test_non_finite_candidate_fails_loudly(poke):
    rng = np.random.default_rng(0)
    factor = rng.standard_normal((12, 3))
    state = (LoadedGramState if poke == "factor" else FactoredFagodState)(
        factor, 1e-3)
    state.add(4)
    if poke == "factor":
        state.projections()[0][7, 2] = np.nan   # an entry of U
    else:
        state.g[7] = -1.0       # o_7 = 1 / 0
    with pytest.raises(ValueError, match="not finite"):
        state.smallest_candidate()


@pytest.mark.parametrize("where,value", [("b", np.inf), ("b", np.nan),
                                         ("d", np.nan)])
def test_non_finite_fagod_term_fails_loudly(where, value):
    rng = np.random.default_rng(1)
    state = FactoredFagodState(rng.standard_normal((12, 3)), 1e-3)
    for j in (0, 5):
        state.add(j)
    if where == "b":
        # the first free node is never dropped, so its column is read
        state._b[0, _first_free(state)] = value
    else:
        state._d[1] = value
    with pytest.raises(ValueError, match="not finite"):
        state.smallest_candidate()


def test_agod_scan_rejects_a_non_finite_g():
    # with g_j = inf every term of node j reads diag_k - u_jk^2 / inf =
    # diag_k, which is finite: only the check on 1 + g_j catches it
    taken, g = np.zeros(4, dtype=bool), np.full(4, 0.5)
    scan = _kernels.AgodScan(np.ones((4, 2)), g, taken)
    scan.diag[:] = 2.0
    assert scan() == (0, 2.0 - 1.0 / 1.5)
    g[2] = np.inf
    with pytest.raises(ValueError, match="not finite"):
        scan()


def test_scan_buffers_are_checked_when_bound():
    taken = np.zeros(5, dtype=bool)
    with pytest.raises(ValueError, match="C-contiguous bool"):
        _kernels.AgodScan(np.zeros((5, 2)), np.zeros(5), taken.astype(np.uint8))
    with pytest.raises(ValueError, match=r"shape \(5,\)"):
        _kernels.AgodScan(np.zeros((5, 2)), np.zeros(4), taken)
    b, d, a = np.zeros((4, 5)), np.zeros(4), np.zeros(5)
    with pytest.raises(ValueError, match="C-contiguous float64"):
        _kernels.FagodScan(np.zeros((4, 10))[:, ::2], d, a, taken, 1.0)
    with pytest.raises(ValueError, match=r"shape \(4,\)"):
        _kernels.FagodScan(b, np.zeros(3), a, taken, 1.0)
    scan = _kernels.FagodScan(b, d, a, taken, 1.0)
    with pytest.raises(ValueError, match="out of range"):
        scan(5)
    taken[:] = True
    with pytest.raises(ValueError, match="no node is free"):
        scan(0)
