"""Memory of the graph generators and the Laplacian, of the eigen-free
path after the Jacobi sweep, of the truncated eigensolver, and of the
trials of both paths.

Filter synthesis, fagod selection and reconstruction work on the n x K
factor of the approximate filter and a K x K loaded Gram, so their peak
allocation stays far below one dense n x n array.  A dense filter brought
back onto this path fails the bound.  A graph is its edge list, and so
is its Laplacian: the sensor generator builds no distance matrix and no
adjacency, and `build_laplacian` writes no n x n array.  Each consumer
writes its own arrays of L from the edges: the subset eigensolver works
in an n x n array, with O(nK) more, where the full decomposition reads
it and holds its n x n eigenvectors, and the Jacobi sweep rotates the
packed strict upper triangle, half an n x n array, and the diagonal,
whose rows are summed one at a time in an n-vector.  An eigensolver
trial therefore holds one n x n array.  A fagod trial solves first and
writes the packed triangle after that, or, with a CPU to spare, writes
the triangle before the two run side by side; a GS2 trial's full basis
adds the eigenvectors, whose signs are fixed in place.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gsample.bench as bench
from gsample import (DEFAULT_MU, build_laplacian, eigendecompose,
                     filter_reconstruct, gen_sensor, gen_signal, greedy_jacobi,
                     greedy_select, lowpass_from_givens, observe,
                     rotation_budget, save_graph)
from gsample.graphs import ER_P, SENSOR_KNN, Laplacian
from gsample.oracle import dense_adjacency

MIB = 1024.0 * 1024.0


def test_eigen_free_path_after_the_sweep_allocates_o_nk():
    n, K, M = 1000, 40, 40
    lap = build_laplacian(gen_sensor(n, 6, seed=0))
    signal = gen_signal("GS3", eigendecompose(lap), seed=1)
    seq, eigs, perm = greedy_jacobi(lap, rotation_budget(n))
    dense_mb = n * n * 8 / MIB
    tracemalloc.start()
    try:
        filt = lowpass_from_givens(seq, perm, K, approx_eigs=eigs)
        sel = greedy_select("fagod", M, filt=filt, mu=DEFAULT_MU)
        obs = observe(signal, sel.indices, 1e-3, seed=2)
        rec = filter_reconstruct(obs, filt, DEFAULT_MU)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(rec.values).all()
    assert dense_mb > 7.5
    assert peak / MIB < 2.0, f"peak {peak / MIB:.2f} MiB"


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / MIB


def test_truncated_eigendecomposition_allocates_one_dense_copy():
    n, K = 800, 40
    lap = build_laplacian(gen_sensor(n, 6, seed=0))
    dense_mb = n * n * 8 / MIB
    part = _peak_mb(lambda: eigendecompose(lap, K))
    full = _peak_mb(lambda: eigendecompose(lap))
    # LAPACK's workspace is allocated outside tracemalloc's view, so the
    # subset solve shows the array of L that it writes and works in, and
    # the full solve that array and its eigenvectors (2.02 dense arrays;
    # n x K masks in the sign fix read 2.25, and a reordered or
    # sign-fixed copy of the eigenvectors would add a third)
    assert dense_mb < part < dense_mb + 1.0, f"peak {part:.2f} MiB"
    assert 2 * dense_mb < full < 2.05 * dense_mb, f"peak {full:.2f} MiB"


def test_sensor_graph_holds_no_dense_array():
    # a generator that built the dense adjacency read 1.05 dense arrays
    n = 800
    peak = _peak_mb(lambda: gen_sensor(n, 6, seed=0))
    assert peak < 0.2 * n * n * 8 / MIB, f"peak {peak:.2f} MiB"


def test_laplacian_of_a_sensor_graph_is_its_one_dense_array():
    # its matrix, written from the edges; a dense adjacency beside L read
    # 2.0 dense arrays
    n = 800
    peak = _peak_mb(lambda: build_laplacian(gen_sensor(n, 6, seed=0)).matrix)
    assert peak < 1.2 * n * n * 8 / MIB, f"peak {peak:.2f} MiB"


def test_a_read_of_matrix_is_freed_with_its_array():
    # matrix written at the first read and kept held 1.0 dense arrays
    # (30.5 MiB here) for the Laplacian's whole life
    n = 2000
    lap = build_laplacian(gen_sensor(n, 6, seed=0))
    build_laplacian(gen_sensor(60, 6, seed=0)).matrix  # warm up
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        read = lap.matrix
        assert read.shape == (n, n)
        del read
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 0.001 * n * n * 8, f"{after - before} bytes kept"
    assert vars(lap).keys() == {"n", "_edges"}


def test_laplacian_at_4000_nodes_holds_no_dense_array():
    # L written at build time read 1.0 dense arrays (122 MiB here), and a
    # fresh diagonal summed a quarter of L's rows at a time 0.25
    n = 4000
    for read in (lambda lap: lap, Laplacian.diagonal):
        peak = _peak_mb(lambda: read(build_laplacian(gen_sensor(n, 6,
                                                                seed=0))))
        assert peak < 0.05 * n * n * 8 / MIB, f"peak {peak:.2f} MiB"


@pytest.mark.parametrize("n", [50, 200])
@pytest.mark.parametrize("model", ["G1", "G2", "G3"])
def test_save_graph_writes_the_dense_upper_triangle(tmp_path, model, n):
    # the file a dense adjacency gave: its upper triangle in
    # np.nonzero order
    graph = bench.make_graph(model, n, 1, SENSOR_KNN, max(ER_P, 8.0 / n))
    adj = dense_adjacency(graph)
    expected = "".join(f"{i} {j} {float(adj[i, j])!r}\n"
                       for i, j in zip(*np.nonzero(np.triu(adj, 1))))
    save_graph(graph, tmp_path / "g.txt")
    assert (tmp_path / "g.txt").read_bytes() == expected.encode()


_GRAPH_GEN = """
import resource, sys, tracemalloc
from gsample import cli

def maxrss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

before = maxrss_mib()
tracemalloc.start()
code = cli.main(["graph", "gen", "--model", "G1", "--n", "4000",
                 "--out", sys.argv[1]])
peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
print(code, maxrss_mib() - before, peak)
"""


def test_graph_gen_at_4000_nodes_holds_no_dense_array(tmp_path):
    # in a process of its own, whose resident peak also sees what the
    # compiled kernels allocate
    n = 4000
    dense_mb = n * n * 8 / MIB  # 122 MiB
    src = str(Path(bench.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _GRAPH_GEN, str(tmp_path / "g.txt")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    code, grown, peak = done.stdout.split()[-3:]
    assert code == "0"
    assert float(peak) < 0.05 * dense_mb, f"peak {peak} MiB"
    assert float(grown) < 0.25 * dense_mb, f"resident grew {grown} MiB"


def _packed_mb(n):
    """One packed strict upper triangle of an n x n array, in MiB."""
    return n * (n - 1) // 2 * 8 / MIB


def test_greedy_jacobi_checks_its_input_beside_one_working_copy():
    n = 800
    lap = build_laplacian(gen_sensor(n, 6, seed=0))
    greedy_jacobi(lap, 0)  # warm up
    # at J = 0 the sweep only writes its packed triangle and its
    # diagonal, whose row sums the Laplacian checks; an n x n boolean
    # (0.61 MiB here) would show above the triangle
    extra = _peak_mb(lambda: greedy_jacobi(lap, 0)) - _packed_mb(n)
    assert extra < 0.5 * n * n / MIB, f"{extra:.2f} MiB above the copy"


def test_greedy_jacobi_at_2000_nodes_holds_no_dense_array():
    # the packed triangle is half an n x n array; the dense working
    # array it replaced read 1.0 (30.5 MiB here)
    n = 2000
    lap = build_laplacian(gen_sensor(n, 6, seed=0))
    greedy_jacobi(lap, 0)  # warm up
    peak = _peak_mb(lambda: greedy_jacobi(lap, 0)) / (n * n * 8 / MIB)
    assert peak < 0.6, f"peak {peak:.3f} dense arrays"


def _trial_peak_in_dense_arrays(methods, sweep, spare_cpu=False):
    """Peak of one rmse_vs_size trial (G1, GS3, n = 800, K = 40), in
    dense n x n arrays."""
    n = 800
    spec = bench.parse_spec_text(
        f"study = rmse_vs_size\nn = {n}\nK = 40\nsignal = GS3\n"
        f"methods = {methods}\nsweep = {sweep}\ntrials = 1")
    bench._TrialContext(spec, 60, 0, spare_cpu)  # warm up
    peak = _peak_mb(lambda: bench._rmse_trial_rows(spec, 0, False, spare_cpu))
    return peak / (n * n * 8 / MIB)


def test_eigensolver_trial_holds_one_dense_array():
    # the spectral-800 workload's trial; the Laplacian's matrix beside the
    # solver's copy of it read 2.1 dense arrays
    peak = _trial_peak_in_dense_arrays("agod, dopt, aopt", "40, 80")
    assert peak < 1.3, f"peak {peak:.2f} dense arrays"


@pytest.mark.parametrize("spare_cpu", [True, False])
def test_fagod_trial_holds_a_solver_array_and_a_packed_triangle(spare_cpu):
    # side by side, the solver's n x n array and the sweep's packed
    # triangle: 1.70 dense arrays, where an n x n sweep array read 2.19
    # and the Laplacian held beside both above 3; one after the other,
    # the solver's array alone: 1.14, where two copies read 2.1
    peak = _trial_peak_in_dense_arrays("fagod", "80", spare_cpu)
    bound = 1.85 if spare_cpu else 1.3
    assert peak < bound, f"peak {peak:.2f} dense arrays"


@pytest.mark.parametrize("spare_cpu", [True, False])
def test_full_basis_fagod_trial_copies_no_eigenvectors(spare_cpu):
    # GS2 needs the full basis: the sweep's and the solver's copies and
    # the eigenvectors read about 3.3 dense arrays; a reordered or
    # sign-fixed copy of the eigenvectors read 5.3
    n = 800
    spec = bench.parse_spec_text(
        f"study = rmse_vs_size\nn = {n}\nK = 40\nsignal = GS2\n"
        "methods = fagod\nsweep = 80\ntrials = 1")
    bench._TrialContext(spec, 60, 0, spare_cpu)  # warm up
    peak = _peak_mb(lambda: bench._rmse_trial_rows(spec, 0, False, spare_cpu))
    assert peak < 4.0 * n * n * 8 / MIB, f"peak {peak:.2f} MiB"


_CROSSOVER = """
import json, sys
sys.path.insert(0, sys.argv[1])
import crossover
crossover.SIZES, crossover.TRIALS = ((60, 5, 10), (200, 10, 30)), 2
print(json.dumps(crossover.main()))
"""


def test_crossover_returns_its_medians_and_each_paths_peak():
    # in a process of its own: the script sets the BLAS thread count
    # before numpy loads
    root = Path(bench.__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "-c", _CROSSOVER, str(root / "scripts")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    printed = done.stdout.splitlines()
    results = json.loads(printed[-1])
    assert list(results) == ["60", "200"]
    for line, (n, got) in zip(printed, results.items()):
        assert (got["K"], got["M"]) == ((5, 10) if n == "60" else (10, 30))
        assert set(got["median_ms"]) == {
            "jacobi", "synth", "fagod", "eigen-free", "eigendecompose",
            "agod", "eigensolver"}
        assert line.startswith(f"n={n} K={got['K']} M={got['M']}")
        # the eigensolver path writes one n x n array of L and holds
        # O(nK) more; the eigen-free path writes the packed triangle,
        # half such an array, beside the sweep's record of 24 bytes a
        # rotation (0.53 dense arrays at n = 60, 0.22 at n = 200)
        dense = int(n) ** 2 * 8 / MIB
        record = rotation_budget(int(n)) * 24 / MIB
        eigen_free, eigensolver = (got["peak_mib"]["eigen-free"],
                                   got["peak_mib"]["eigensolver"])
        assert 0.5 * dense < eigen_free < dense + record
        if int(n) == 200:
            assert eigen_free < dense
        assert dense < eigensolver < 2 * dense + 0.1
        for path in ("eigen-free", "eigensolver"):
            assert f"{path} {got['peak_mib'][path]:.2f}" in line
