"""SHA-256 digests of every spec output, for byte-identity checks.

    PYTHONPATH=src python3 scripts/spec_digest.py

Runs each spec in `specs/` that `gsample run` accepts and prints the
SHA-256 of its CSV's data columns, every column but `wall_ms`.  Each such
spec runs twice, at the default process count and in process
(threads=1), and the script exits 1 if the two disagree; so does its
first trial alone (trials = 1), which at the default thread count runs
a fagod trial's Jacobi sweep beside its eigensolve on a spare CPU.  Each
spec of BLUE_SPECS runs once more with `--blue`, at the default process
count and in process, and the script prints that run's digest and exits
1 if the two disagree.  Then
prints the SHA-256 of the whole CSVs of `gsample oracle alpha` and
`gsample oracle subopt` on the specs of those studies.  The CSVs are
written as the CLI writes them, to a temporary directory.  Then it
prints one SHA-256 over the fixed grid GRAPH_DRAWS of `bench.make_graph`
draws, the graphs of `run` and `graph gen`, and one over their
Laplacians; and last one over `greedy_jacobi` on the Laplacians of the
grid JACOBI_GRAPHS at the default rotation budget, one over the picks of
fagod on dense exact filters on the grid DENSE_FAGOD, one over the agod,
dopt and aopt picks on the grid SPECTRAL_PICKS, and one over the picks
of every greedy pass, fagod on the exact and the Givens factor, on the
grid BENCH_PICKS.  Running the script against two checkouts (PYTHONPATH
pointing at each `src/`) and comparing the
printed lines compares their results byte for byte.

`spec_digest.txt` beside this script holds the lines it prints, after a
`#` header naming the numpy, scipy and BLAS versions they were made
with; a change that moves a line updates that file.
"""

import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from gsample import bench  # noqa: E402
from gsample.filters import (approximate_lowpass,  # noqa: E402
                             exact_lowpass, greedy_jacobi, rotation_budget)
from gsample.graphs import ER_P, SENSOR_KNN, build_laplacian  # noqa: E402
from gsample.oracle import (dense_adjacency, save_alpha_csv,  # noqa: E402
                            save_subopt_csv)
from gsample.selection import (DEFAULT_MU,  # noqa: E402
                               greedy_aoptimal, greedy_doptimal,
                               greedy_select)
from gsample.spectral import eigendecompose  # noqa: E402

SPECS = Path(__file__).resolve().parent.parent / "specs"
TIMING_COLUMN = "wall_ms"

# specs run again with --blue: their BLUE rows (budgets of at least K)
# run one by one beside the loaded rows each trial solves together
BLUE_SPECS = ("rmse_vs_size_desk.spec",)

# (model, n, seed, knn, p): 11 sizes x 4 seeds x (four G1 neighbour
# counts, three G2 edge probabilities, G3) = 352 draws, failing ones
# included
GRAPH_DRAWS = tuple(
    (model, n, seed, knn, p)
    for n in (2, 3, 5, 8, 12, 20, 50, 100, 200, 400, 800)
    for seed in (0, 1, 7, 123)
    for model, knn, p in ([("G1", knn, ER_P) for knn in (1, 2, 6, 10)]
                          + [("G2", SENSOR_KNN, p) for p in (0.05, 0.3, 1.0)]
                          + [("G3", SENSOR_KNN, ER_P)]))

# (model, n, seed, knn, p): G1, G2 and G3 at four sizes and two seeds; G2
# links with p = 8 / n, so every size connects
JACOBI_GRAPHS = tuple((model, n, seed, SENSOR_KNN, min(1.0, 8.0 / n))
                      for model in bench.GRAPH_MODELS
                      for n in (16, 60, 200, 400) for seed in (0, 1))

# (model, n, seed, knn, p, K, mu): G1, G2 and G3 at three sizes and two
# seeds, two bandwidths and two loadings; each selects K nodes: past K the
# twin nodes of the dense G2 graph at n = 10 tie exactly, and rounding
# picks among them
DENSE_FAGOD = tuple((model, n, seed, SENSOR_KNN, min(1.0, 8.0 / n), K, mu)
                    for model in bench.GRAPH_MODELS
                    for n in (10, 30, 60) for seed in (0, 1)
                    for K in (2, 4) for mu in (1 / 99, 1e-3))

# (model, n, seed, knn, p, K, mu): G1, G2 and G3 at two sizes and two
# seeds, K = n / 20 and three loadings down to 1e-5; each selects 4K
# nodes, past the bandwidth
SPECTRAL_PICKS = tuple((model, n, seed, SENSOR_KNN, min(1.0, 8.0 / n),
                        n // 20, mu)
                       for model in bench.GRAPH_MODELS
                       for n in (100, 200) for seed in (0, 1)
                       for mu in (1 / 99, 1e-3, 1e-5))

# (model, n, seed, knn, p, K, M): G1 at the size of the n = 800 benchmark
# workloads on three seeds, and G1, G2 and G3 at two sizes and two seeds
# with K = n / 20 and M = 4K; every pass runs at the default loading
BENCH_PICKS = (tuple(("G1", 800, seed, SENSOR_KNN, ER_P, 40, 80)
                     for seed in (0, 1, 2))
               + tuple((model, n, seed, SENSOR_KNN, min(1.0, 8.0 / n),
                        n // 20, n // 5)
                       for model in bench.GRAPH_MODELS
                       for n in (100, 200) for seed in (0, 1)))


def data_digest(path: Path) -> str:
    """SHA-256 of a result CSV with its timing column dropped."""
    lines = path.read_text(encoding="utf-8").splitlines()
    drop = lines[0].split(",").index(TIMING_COLUMN)
    kept = (",".join(f for i, f in enumerate(line.split(",")) if i != drop)
            for line in lines)
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def run_digest(spec, out: Path, use_blue: bool = False):
    """The data digest of `spec`'s run at the default process count, and
    whether its run at threads=1 has the same one."""
    bench.write_result_csv(bench.run_experiment(spec, use_blue=use_blue), out)
    digest = data_digest(out)
    bench.write_result_csv(
        bench.run_experiment(spec, threads=1, use_blue=use_blue), out)
    return digest, data_digest(out) == digest


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def draws_digest(graph_bytes) -> str:
    """SHA-256 over GRAPH_DRAWS: graph_bytes(graph) of each draw, or the
    exception type where the draw fails."""
    digest = hashlib.sha256()
    for draw in GRAPH_DRAWS:
        try:
            graph = bench.make_graph(*draw)
        except (ValueError, RuntimeError) as exc:
            digest.update(type(exc).__name__.encode())
            continue
        digest.update(graph_bytes(graph))
    return digest.hexdigest()


def generator_bytes(graph) -> bytes:
    """A draw's dense adjacency bytes and sorted meta."""
    return (dense_adjacency(graph).tobytes()
            + repr(sorted(graph.meta.items())).encode())


def laplacian_bytes(graph) -> bytes:
    return build_laplacian(graph).matrix.tobytes()


def jacobi_digest() -> str:
    """SHA-256 over JACOBI_GRAPHS: the bytes of each sweep's planes,
    angles, approximate eigenvalues and perm."""
    digest = hashlib.sha256()
    for model, n, seed, knn, p in JACOBI_GRAPHS:
        lap = build_laplacian(bench.make_graph(model, n, seed, knn, p))
        seq, eigs, perm = greedy_jacobi(lap, rotation_budget(n))
        for part in (seq.planes, seq.thetas, eigs, perm):
            digest.update(part.tobytes())
    return digest.hexdigest()


def dense_fagod_digest() -> str:
    """SHA-256 over DENSE_FAGOD: the indices of `greedy_select("fagod")`
    on the dense V_K V_K^T of each graph, at budget K."""
    digest = hashlib.sha256()
    for model, n, seed, knn, p, K, mu in DENSE_FAGOD:
        basis = eigendecompose(
            build_laplacian(bench.make_graph(model, n, seed, knn, p)))
        picks = greedy_select("fagod", K, filt=exact_lowpass(basis, K), mu=mu)
        digest.update(repr(picks.indices).encode())
    return digest.hexdigest()


def spectral_picks_digest() -> str:
    """SHA-256 over SPECTRAL_PICKS: the indices of agod, dopt and aopt on
    the K + 1 lowest eigenpairs of each graph, at budget 4K."""
    digest = hashlib.sha256()
    for model, n, seed, knn, p, K, mu in SPECTRAL_PICKS:
        basis = eigendecompose(
            build_laplacian(bench.make_graph(model, n, seed, knn, p)), K + 1)
        for picks in (greedy_select("agod", 4 * K, basis=basis, K=K, mu=mu),
                      greedy_doptimal(basis, K, mu, 4 * K),
                      greedy_aoptimal(basis, K, mu, 4 * K)):
            digest.update(repr(picks.indices).encode())
    return digest.hexdigest()


def bench_picks_digest() -> str:
    """SHA-256 over BENCH_PICKS: the indices of agod, dopt, aopt, fagod on
    V_K and fagod on the Givens filter of each graph, at budget M."""
    digest = hashlib.sha256()
    for model, n, seed, knn, p, K, M in BENCH_PICKS:
        lap = build_laplacian(bench.make_graph(model, n, seed, knn, p))
        basis = eigendecompose(lap, K + 1)
        filt = approximate_lowpass(lap, K)
        for picks in (greedy_select("agod", M, basis=basis, K=K),
                      greedy_doptimal(basis, K, DEFAULT_MU, M),
                      greedy_aoptimal(basis, K, DEFAULT_MU, M),
                      greedy_select("fagod", M, basis=basis, K=K),
                      greedy_select("fagod", M, filt=filt)):
            digest.update(repr(picks.indices).encode())
    return digest.hexdigest()


def library_lines():
    """The six lines printed after the spec runs, one per fixed grid of
    library calls."""
    yield f"generators {len(GRAPH_DRAWS)} draws {draws_digest(generator_bytes)}"
    yield f"laplacians {len(GRAPH_DRAWS)} draws {draws_digest(laplacian_bytes)}"
    yield f"greedy_jacobi {len(JACOBI_GRAPHS)} sweeps {jacobi_digest()}"
    yield f"dense fagod {len(DENSE_FAGOD)} picks {dense_fagod_digest()}"
    yield f"spectral picks {len(SPECTRAL_PICKS)} {spectral_picks_digest()}"
    yield f"bench picks {len(BENCH_PICKS)} {bench_picks_digest()}"


def main() -> int:
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        for path in sorted(SPECS.glob("*.spec")):
            spec = bench.parse_spec_file(path)
            if spec.study in bench.RUN_STUDIES:
                digest, same = run_digest(spec, out)
                print(f"run {path.name} {digest}", flush=True)
                if not same:
                    print(f"{path.name}: data columns differ at threads=1",
                          file=sys.stderr)
                    status = 1
                first = dataclasses.replace(spec, trials=1)
                digests = set()
                for threads in (None, 1):
                    bench.write_result_csv(
                        bench.run_experiment(first, threads=threads), out)
                    digests.add(data_digest(out))
                if len(digests) != 1:
                    print(f"{path.name}: data columns of its first trial "
                          "alone differ at threads=1", file=sys.stderr)
                    status = 1
            if spec.study == "alpha":
                save_alpha_csv(bench.run_alpha_certificate(spec), out)
                print(f"oracle alpha {path.name} {file_digest(out)}",
                      flush=True)
            if spec.study == "suboptimality":
                save_subopt_csv(bench.run_subopt_reports(spec), out)
                print(f"oracle subopt {path.name} {file_digest(out)}",
                      flush=True)
        for name in BLUE_SPECS:
            digest, same = run_digest(bench.parse_spec_file(SPECS / name), out,
                                      use_blue=True)
            print(f"run --blue {name} {digest}", flush=True)
            if not same:
                print(f"{name}: --blue data columns differ at threads=1",
                      file=sys.stderr)
                status = 1
    for line in library_lines():
        print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
