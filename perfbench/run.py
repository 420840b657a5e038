"""Pipeline benchmark for gsample.

Drives the program through `gsample.bench.parse_spec_text` and
`run_experiment`, in a closed loop with one client, on three workloads (see
workloads.py).  One op is one `run_experiment` call.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

`--trace 0` times ops with no tracing and reports the end-to-end metrics.
A pass of a calibration kernel runs between ops; the gated timings are
scaled by it (see calibrate.py), and the raw ones are printed ungated.
`--trace 1` alternates untraced and traced ops on the same base seeds and
reports the per-layer metrics, with the tracing overhead between the two.
Both modes then repeat the first op (default threads and threads = nproc),
check greedy selection against the exhaustive-greedy oracle on a small
instance, and run one op under `tracemalloc` in a pass of its own.
`--workload all` runs every workload in both modes and prints every metric
with its unit and sample count, the failure share and the crossover report.

The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`.  A full report, with run metadata and
(when traced) every span, goes to `.perfbench_runs/` in the checkout.  The
exit code is nonzero when any op raised or failed a check.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# One BLAS thread: on a 2-vCPU shared machine a second BLAS thread waits on
# whatever else runs there.  Over five eigfree-800 runs, the quartile spread
# of trials_per_s fell from 21% to 5% with one thread.  Set before numpy is
# imported; set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import layers  # noqa: E402  (imports numpy)
from calibrate import Calibration  # noqa: E402
import runmeta  # noqa: E402
import summary  # noqa: E402
from checks import oracle_problems, repeat_problems, row_problems  # noqa: E402
from spans import Tracer, installed  # noqa: E402
from workloads import WORKLOADS, nproc, op_seeds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_runs"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

# Figures printed and kept in the report but not in BENCHMARK.json, whose
# entries give the gated metrics and their units.
UNGATED = {
    "trials_per_s": "trials/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "op_ms_min": "ms",
    "op_cpu_ms_p50": "ms",
    "setup_wall_s": "s",
    "kernel_ms_p50": "ms",
}


def import_program():
    """Import gsample from this checkout's src/, and from nowhere else."""
    if not (SRC / "gsample" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import gsample
    if Path(gsample.__file__).resolve().parent != (SRC / "gsample").resolve():
        raise SystemExit(f"perfbench: gsample imported from {gsample.__file__}")


class Tally:
    """Counts ops attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, label, fn):
        self.attempted += 1
        try:
            value, problems = fn()
        except Exception as exc:  # a failing op is counted, not fatal
            value, problems = None, [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
            return None
        return value


def load_metrics():
    """{"end_to_end" | "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def run_op(workload, base_seed, threads=None, around=contextlib.nullcontext):
    """One op: (result, wall seconds, CPU seconds) and the row checks' problems.

    CPU time is the whole process's, so it counts every thread the runner
    starts.  `around` makes a context that encloses the run_experiment call
    alone, such as a tracer's root span.
    """
    from gsample.bench import parse_spec_text, run_experiment
    spec = parse_spec_text(workload.op_spec_text(base_seed))
    with around():
        start, cpu = time.perf_counter(), time.process_time()
        result = run_experiment(spec, threads=threads)
        seconds = time.perf_counter() - start
        cpu = time.process_time() - cpu
    return (result, seconds, cpu), row_problems(result, spec)


def setup_seconds(workload, warm_seed, calibration):
    """Fresh-process set-ups: import, spec parse, warm-up op.

    Each probe also times the calibration kernel once, after its set-up.
    Returns the median scaled set-up, the least wall time and every
    (wall, kernel) sample in seconds.  Scaled times can err either way, so
    the median, not the least, is the steady one.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
             workload.name, str(warm_seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=True)
        wall, kernel = done.stdout.split()[-2:]
        samples.append((float(wall), float(kernel)))
    scaled = statistics.median(calibration.scaled(wall, kernel)
                               for wall, kernel in samples)
    return scaled, min(wall for wall, _ in samples), samples


def timed_loop(workload, seeds, seconds, tally, calibration):
    """Untraced ops, each after a pass of the calibration kernel.

    Ops run until `seconds` pass; one more kernel pass follows the last.
    Returns [(seed, result, wall ms, CPU ms, scaled ms, kernel ms)] and the
    loop's wall seconds.  An op is scaled by the mean of the kernel passes
    just before and after it.
    """
    ops, kernel = [], [calibration.seconds()]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        seed = next(seeds)
        out = tally.op(f"op seed {seed}", lambda: run_op(workload, seed))
        if out is not None:
            ops.append((seed, out[0], out[1], out[2], len(kernel) - 1))
        kernel.append(calibration.seconds())
    wall = time.perf_counter() - start
    timed = []
    for seed, result, seconds, cpu, k in ops:
        around = (kernel[k] + kernel[k + 1]) / 2
        timed.append((seed, result, seconds * 1e3, cpu * 1e3,
                      calibration.scaled(seconds, around) * 1e3, around * 1e3))
    return timed, wall


def traced_loop(workload, seeds, seconds, tally, K):
    """Pairs of (untraced, traced) ops on one base seed until `seconds` pass.

    Returns the untraced ops, (untraced, traced) op times of each pair,
    per-op layer values, the tracer, the targets that could not be wrapped
    and the figures that could not be read.
    """
    tracer = Tracer()
    ops, pairs, values, missing, unreadable = [], [], [], [], set()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        seed = next(seeds)
        out = tally.op(f"op seed {seed}", lambda: run_op(workload, seed))
        if out is None:
            continue
        ops.append((seed, out[0], out[1] * 1e3, out[2] * 1e3))
        op = len(ops) - 1

        def traced():
            with installed(tracer) as not_wrapped:
                missing[:] = not_wrapped
                _, problems = run_op(workload, seed,
                                     around=lambda: tracer.op_span(op))
            root = tracer.spans[tracer.op_spans(op)[0][0]]
            found, more, skipped = layers.op_values(
                tracer, op, workload.trials_per_op, K)
            return ((root.end - root.start) * 1e3, found, skipped), \
                problems + more

        got = tally.op(f"traced op seed {seed}", traced)
        tracer.calls = []
        if got is not None:
            pairs.append((ops[-1][2], got[0]))
            values.append(got[1])
            unreadable.update(got[2])
    return ops, pairs, values, tracer, missing, sorted(unreadable)


def memory_pass(workload, seed, tally, layer_peaks):
    """One op under tracemalloc; with `layer_peaks`, layer spans record theirs.

    Without layer spans only the op's root span allocates tracer state, so
    the op peak does not count the spans of a traced op.
    """
    tracer = Tracer(memory=True, capture=False)
    gc.collect()  # start from no cyclic garbage, so collections fall alike
    tracemalloc.start()
    try:
        def op():
            with installed(tracer) if layer_peaks else contextlib.nullcontext():
                return run_op(workload, seed, around=lambda: tracer.op_span(0))
        ok = tally.op(f"memory pass seed {seed}", op) is not None
    finally:
        tracemalloc.stop()
    return layers.memory_values(tracer) if ok else None


def check_pass(workload, first, tally, nproc, seed):
    """Repeat the first op (default threads, then nproc) and run the oracle."""
    base_seed, result = first[:2]
    for label, threads in (("default threads", None), (f"threads={nproc}", nproc)):
        def again(threads=threads, label=label):
            (rerun, _, _), problems = run_op(workload, base_seed, threads=threads)
            return True, problems + repeat_problems(result, rerun, label)
        tally.op(f"repeat of first op ({label})", again)
    tally.op("oracle check", lambda: (True, oracle_problems(seed)))


def end_to_end(workload, ops, wall, setup, memory, accuracy):
    """Every end-to-end figure: {name: value} and {name: sample count}.

    The gated timings are scaled by the calibration kernel (see
    calibrate.py): on a small shared machine raw wall and CPU times move by
    up to 1.7x between runs of the same code.  The raw figures are kept,
    ungated.
    """
    op_ms = [op[2] for op in ops]
    tail_ms, tail_pct, _ = summary.tail(op_ms)
    rmse = [row.value for out in accuracy if out is not None
            for row in out[0].rows]
    trials = len(ops) * workload.trials_per_op
    setup_scaled, setup_wall, setup_samples = setup
    values = {
        "op_ms_scaled": summary.median([op[4] for op in ops]),
        "setup_s": setup_scaled,
        "peak_alloc_mb": memory["peak_alloc_mb"] if memory else 0.0,
        "rmse_mean": statistics.fmean(rmse) if rmse else 0.0,
        "trials_per_s": trials / wall,
        "op_ms_p50": summary.median(op_ms),
        "op_ms_tail": tail_ms,
        "op_ms_min": min(op_ms),
        "op_cpu_ms_p50": summary.median([op[3] for op in ops]),
        "setup_wall_s": setup_wall,
        "kernel_ms_p50": summary.median([op[5] for op in ops]),
    }
    samples = {name: len(op_ms) for name in values}
    samples.update(trials_per_s=trials, setup_s=len(setup_samples),
                   setup_wall_s=len(setup_samples), peak_alloc_mb=1,
                   rmse_mean=len(rmse))
    return values, samples, {"op_ms_tail_percentile": tail_pct,
                             "setup_samples": setup_samples}


def per_layer(traced, memory):
    """Per-layer medians over traced ops, memory peaks and tracing overhead."""
    pairs, op_values, _, missing, unreadable = traced
    metrics, samples = {}, {}
    for name in layers.PER_LAYER:
        found = [v[name] for v in op_values if name in v]
        if found:
            metrics[name], samples[name] = summary.median(found), len(found)
    for name in ("graphs.peak_mb", "filters.peak_mb"):
        if memory and name in memory:
            metrics[name], samples[name] = memory[name], 1
    if pairs:
        # each pair ran back to back on one base seed, so their ratio is
        # not moved by the machine's slower and faster spells
        metrics["trace.op_ms_p50"] = summary.median([t for _, t in pairs])
        metrics["trace.overhead_frac"] = \
            summary.median([t / u for u, t in pairs]) - 1.0
        samples["trace.op_ms_p50"] = samples["trace.overhead_frac"] = \
            len(pairs)
    for name in layers.absent_metrics(missing):
        metrics.pop(name, None)
    absent = sorted(set(layers.PER_LAYER) - set(metrics))
    return metrics, samples, {"absent": absent, "missing_targets": missing,
                              "unreadable": unreadable,
                              "layer_ops": op_values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(expected all or one of {', '.join(WORKLOADS)})")
    import_program()
    from gsample.bench import parse_spec_text, resolve_k

    workload = WORKLOADS[args.workload]
    spec = parse_spec_text(workload.op_spec_text(0))
    K = resolve_k(spec, spec.n)
    meta = runmeta.collect(ROOT, workload, spec, nproc())
    seeds = op_seeds(workload, args.seed)
    tally = Tally()

    if args.trace == 0:
        calibration = Calibration(workload.kernel)
        setup = setup_seconds(workload, 0, calibration)
    panel = range(workload.accuracy_ops if args.trace == 0 else 1)
    accuracy = [tally.op(f"untimed op seed {seed}",
                         lambda: run_op(workload, seed)) for seed in panel]
    if args.trace == 0:
        ops, wall = timed_loop(workload, seeds, args.seconds, tally,
                               calibration)
    else:
        ops, *traced = traced_loop(workload, seeds, args.seconds, tally, K)
    if not ops:
        raise SystemExit("perfbench: no op completed")
    check_pass(workload, ops[0], tally, nproc(), args.seed)
    memory = memory_pass(workload, ops[0][0], tally, layer_peaks=args.trace == 1)

    report = {"meta": meta, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds,
              "ops": [[op[0]] + list(op[2:]) for op in ops]}
    if args.trace == 0:
        values, samples, extra = end_to_end(workload, ops, wall, setup,
                                            memory, accuracy)
        gated = load_metrics()["end_to_end"]
    else:
        values, samples, extra = per_layer(traced, memory)
        gated = load_metrics()["per_layer"]
        extra["spans"] = [[s.name, s.start, s.end, s.parent, s.op]
                          for s in traced[2].spans]
    report.update(extra)
    report.update(
        attempted=tally.attempted, failed=tally.failed,
        fail_frac=tally.failed / tally.attempted, problems=tally.problems,
        samples=samples,
        metrics={k: {"value": v, "unit": gated[k]}
                 for k, v in values.items() if k in gated},
        ungated={k: {"value": v, "unit": UNGATED[k]}
                 for k, v in values.items() if k not in gated})
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for key, value in meta.items():
        print(f"# {key}: {value}")
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    for key in ("absent", "unreadable"):
        if report.get(key):
            print(f"# {key}: {', '.join(report[key])}")
    for line in metric_lines(report):
        print(line)
    print(f"# report: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": report["metrics"]}))
    return 0 if tally.failed == 0 else 1


def metric_lines(report):
    """Every metric of a run's report by name, with unit and sample count."""
    def line(name, entry, note=""):
        if name == "op_ms_tail":
            note = f"p{report['op_ms_tail_percentile']:.4g}; {note}"
        return (f"{name} = {entry['value']:.6g} {entry['unit']} "
                f"({note}samples {report['samples'][name]})")

    lines = [line(name, entry) for name, entry in report["metrics"].items()]
    lines += [line(name, entry, "not gated; ")
              for name, entry in report["ungated"].items()]
    lines.append(f"fail_frac = {report['fail_frac']:.6g} ratio "
                 f"(samples {report['attempted']})")
    return lines


def run_all(args, workloads):
    """Every workload in both modes, then the combined report."""
    reports = {}
    failed = False
    for name in workloads:
        for trace in (0, 1):
            path = OUT_DIR / f"{name}-seed{args.seed}-trace{trace}.json"
            path.unlink(missing_ok=True)
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], cwd=ROOT, capture_output=True,
                text=True, timeout=CHILD_TIMEOUT_S)
            failed |= done.returncode != 0
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
            if path.is_file():
                reports[name, trace] = json.loads(path.read_text())
    for (name, trace), rep in reports.items():
        print(f"== {name} (trace {trace}): attempted {rep['attempted']}, "
              f"failed {rep['failed']}")
        for line in metric_lines(rep):
            print("  " + line)
    print(crossover(reports))
    return 1 if failed else 0


def crossover(reports):
    """Eigen-free against spectral path per trial, at n = 200 and n = 800."""
    def layer(name, metric):
        rep = reports.get((name, 1))
        entry = rep and rep["metrics"].get(metric)
        return f"{entry['value']:.4g} ms" if entry else "n/a"

    rows = [("200", layer("desk", "path.eigfree_ms"),
             layer("desk", "path.spectral_ms"),
             layer("desk", "spectral.eigsh_ref_ms")),
            ("800", layer("eigfree-800", "path.eigfree_ms"),
             layer("spectral-800", "path.spectral_ms"),
             layer("spectral-800", "spectral.eigsh_ref_ms"))]
    lines = ["crossover (per trial): n | Jacobi+synth+fagod | eigh+agod "
             "| eigsh k=K shift-invert (reference, off the program's path)"]
    lines += [" | ".join(row) for row in rows]
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
