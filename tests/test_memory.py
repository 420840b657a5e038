"""Memory of the graph generators and the Laplacian, of the eigen-free
path after the Jacobi sweep, of the truncated eigensolver, and of a fagod
trial that solves for its truth basis beside the sweep.

Filter synthesis, fagod selection and reconstruction work on the n x K
factor of the approximate filter and a K x K loaded Gram, so their peak
allocation stays far below one dense n x n array.  A dense filter brought
back onto this path fails the bound.  The subset eigensolver holds one
n x n working copy of the Laplacian and O(nK) more, where the full
decomposition holds its n x n eigenvectors.  A graph is its edge list:
the sensor generator builds no distance matrix and no adjacency, and the
Laplacian, written from the edges, is its one n x n array.  The Jacobi
sweep checks its input with reductions and row blocks, next to its one
n x n working copy.  A fagod trial drops its Laplacian once the sweep
has its working copy, so the sweep and the solver hold two n x n arrays
between them; a GS2 trial's full basis adds the eigenvectors, whose
signs are fixed in place.
"""

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
from gsample.graphs import ER_P, SENSOR_KNN

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
    full = _peak_mb(lambda: eigendecompose(lap))
    part = _peak_mb(lambda: eigendecompose(lap, K))
    # LAPACK's workspace is allocated outside tracemalloc's view, so the
    # full solve shows its eigenvectors alone (a reordered or sign-fixed
    # copy of them read 3.3 dense arrays) and the subset solve its working
    # copy of the Laplacian
    assert dense_mb < full < 1.5 * dense_mb, f"peak {full:.2f} MiB"
    assert part < dense_mb + 1.0, f"peak {part:.2f} MiB"


def test_sensor_graph_holds_no_dense_array():
    # a generator that built the dense adjacency read 1.05 dense arrays
    n = 800
    peak = _peak_mb(lambda: gen_sensor(n, 6, seed=0))
    assert peak < 0.2 * n * n * 8 / MIB, f"peak {peak:.2f} MiB"


def test_laplacian_of_a_sensor_graph_is_its_one_dense_array():
    # a dense adjacency beside L read 2.0 dense arrays
    n = 800
    peak = _peak_mb(lambda: build_laplacian(gen_sensor(n, 6, seed=0)))
    assert peak < 1.2 * n * n * 8 / MIB, f"peak {peak:.2f} MiB"


@pytest.mark.parametrize("n", [50, 200])
@pytest.mark.parametrize("model", ["G1", "G2", "G3"])
def test_save_graph_writes_the_dense_upper_triangle(tmp_path, model, n):
    # the file a dense adjacency gave: its upper triangle in
    # np.nonzero order
    graph = bench.make_graph(model, n, 1, SENSOR_KNN, max(ER_P, 8.0 / n))
    adj = graph.adjacency
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


def test_greedy_jacobi_checks_its_input_beside_one_working_copy():
    n = 800
    lap = build_laplacian(gen_sensor(n, 6, seed=0))
    greedy_jacobi(lap, 0)  # warm up
    # at J = 0 the sweep only copies and checks the Laplacian; an n x n
    # boolean (0.61 MiB here) would show above the copy
    extra = _peak_mb(lambda: greedy_jacobi(lap, 0)) - n * n * 8 / MIB
    assert extra < 0.5 * n * n / MIB, f"{extra:.2f} MiB above the copy"


@pytest.mark.parametrize("spare_cpu", [True, False])
def test_fagod_trial_holds_two_dense_arrays(spare_cpu):
    # the Laplacian held beside the sweep's and the solver's copies reads
    # above 3 dense arrays
    n = 800
    spec = bench.parse_spec_text(
        f"study = rmse_vs_size\nn = {n}\nK = 40\nsignal = GS3\n"
        "methods = fagod\nsweep = 80\ntrials = 1")
    bench._TrialContext(spec, 60, 0, spare_cpu)  # warm up
    peak = _peak_mb(lambda: bench._rmse_trial_rows(spec, 0, False, spare_cpu))
    assert peak < 2.5 * n * n * 8 / MIB, f"peak {peak:.2f} MiB"


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
