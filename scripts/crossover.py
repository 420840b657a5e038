"""Eigen-free against eigensolver path, per trial, on G1 sensor graphs.

    PYTHONPATH=src python3 scripts/crossover.py

For each size, TRIALS graphs (seeds 0, 1, ...) each run both paths once:

* eigen-free: the greedy Jacobi sweep, the factor synthesis and fagod
  (`greedy_jacobi`, `lowpass_from_givens`, `greedy_select("fagod")`);
* eigensolver: `eigendecompose(lap, K)` and agod.

K and the budget M follow the benchmark workloads: K = 10, M = 30 at
n = 200 (the desk spec), K = 40, M = 80 at n = 800, 1600 and 3200.  At
n = 3200 one dense n x n array is 78 MiB, the eigensolver's working
array, and the sweep's packed triangle is half of it.  Prints the
median milliseconds of each stage and of each path, and the `tracemalloc`
peak of each path on the seed-0 graph, taken in a separate pass after
the timed trials so that tracing does not slow them.  `main()` returns
the same figures.  One BLAS thread.
"""

import os
import statistics
import time
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from gsample import (approximate_lowpass, build_laplacian,  # noqa: E402
                     eigendecompose, gen_sensor, greedy_jacobi, greedy_select,
                     lowpass_from_givens, rotation_budget)

SIZES = ((200, 10, 30), (800, 40, 80), (1600, 40, 80), (3200, 40, 80))
TRIALS = 9
MIB = 1024.0 * 1024.0


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter() - t0) * 1e3


def trial(n, K, M, seed):
    """Stage times in ms of both paths on one graph."""
    lap = build_laplacian(gen_sensor(n, seed=seed))
    (seq, eigs, perm), jacobi = _timed(greedy_jacobi, lap, rotation_budget(n))
    filt, synth = _timed(lowpass_from_givens, seq, perm, K, approx_eigs=eigs)
    _, fagod = _timed(greedy_select, "fagod", M, filt=filt)
    basis, eigh = _timed(eigendecompose, lap, K)
    _, agod = _timed(greedy_select, "agod", M, basis=basis, K=K)
    return {"jacobi": jacobi, "synth": synth, "fagod": fagod,
            "eigen-free": jacobi + synth + fagod, "eigendecompose": eigh,
            "agod": agod, "eigensolver": eigh + agod}


def peaks(n, K, M, seed=0):
    """`tracemalloc` peak in MiB of each path on one graph, from its
    Laplacian on."""
    lap = build_laplacian(gen_sensor(n, seed=seed))
    out = {}
    for name, path in (
            ("eigen-free", lambda: greedy_select(
                "fagod", M, filt=approximate_lowpass(lap, K))),
            ("eigensolver", lambda: greedy_select(
                "agod", M, basis=eigendecompose(lap, K), K=K))):
        tracemalloc.start()
        try:
            path()
            out[name] = tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()
    return out


def main():
    """Print and return {n: {"K", "M", "median_ms": {stage: ms},
    "peak_mib": {path: MiB}}}."""
    results = {}
    for n, K, M in SIZES:
        runs = [trial(n, K, M, seed) for seed in range(TRIALS)]
        medians = {name: statistics.median(r[name] for r in runs)
                   for name in runs[0]}
        peak = peaks(n, K, M)
        results[n] = {"K": K, "M": M, "median_ms": medians, "peak_mib": peak}
        print(f"n={n} K={K} M={M} (median ms of {TRIALS}): "
              + ", ".join(f"{name} {ms:.1f}" for name, ms in medians.items())
              + "; peak MiB: "
              + ", ".join(f"{name} {mib:.2f}" for name, mib in peak.items()))
    return results


if __name__ == "__main__":
    main()
