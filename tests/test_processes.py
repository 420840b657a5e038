"""Trials in forked worker processes: failures, lifetimes, a broken pool,
the process cap, the workers' CPUs, the forking thread and child
processes; and the Jacobi sweep on a second thread beside the eigensolve
of a run with a CPU to spare.

Rows do not depend on the process count (`test_bench.py`); these tests
check what the processes and threads themselves do.  Scripts that must
start from a process without a pool run in a fresh interpreter.
"""

import contextlib
import multiprocessing
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gsample._kernels as kernels
import gsample.bench as bench
from conftest import graph_from_adjacency
from gsample.bench import ExperimentSpec, parse_spec_text, run_experiment
from gsample.graphs import Laplacian

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="trials fork worker processes on "
                                "Linux only")

SRC = Path(bench.__file__).resolve().parents[1]

TWO_TRIALS = ("study = rmse_vs_size\nn = 24\nK = 4\nmethods = agod, fagod\n"
              "sweep = 4, 8\ntrials = 2\n")


def _python(script, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, **kwargs)


def _alive(pid):
    """Whether a process runs; a zombie waiting for its reaper does not."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _data(result):
    return [(r.method, r.sweep, r.trial, repr(float(r.value)), r.seed)
            for r in result.rows]


def test_failed_trial_in_a_worker_raises_as_in_process():
    # the parser rejects this G2 setting; its first trial draws a connected
    # graph and its second, which a worker runs, none
    spec = ExperimentSpec(study="rmse_vs_size", methods=("agod",), n=30,
                          K=4, trials=2, sweep=(5,), graph="G2", p=0.07,
                          base_seed=2)
    assert len(run_experiment(replace(spec, trials=1)).rows) == 1
    messages = []
    for threads in (1, None, 2):
        with pytest.raises(RuntimeError) as info:
            run_experiment(spec, threads=threads)
        messages.append((type(info.value), str(info.value)))
    assert messages == [(RuntimeError,
                         "no connected er graph in 50 attempts (n=30)")] * 3


def test_a_workers_share_comes_back_as_one_pickle():
    # the pool's result thread loads bytes only; the rows reach the
    # caller's memory when run_experiment loads them, after its own share
    spec = parse_spec_text(TWO_TRIALS)
    blob = bench._worker_pool().submit(
        bench._worker_share, spec, range(1, 2), False).result(timeout=60)
    assert isinstance(blob, bytes)
    rows, failure = pickle.loads(blob)
    assert failure is None
    in_process = [row for row in _data(run_experiment(spec, threads=1))
                  if row[2] == 1]
    assert sorted(_data(bench.ExperimentResult(tuple(rows)))) == \
        sorted(in_process)


def test_workers_run_on_every_usable_cpu():
    # the scheduler places the workers: none keeps a CPU set of its own
    # after its share
    _needs_two_cpus()
    run_experiment(parse_spec_text(TWO_TRIALS))
    cpus = [os.sched_getaffinity(pid) for pid in bench._pool._processes]
    assert cpus and cpus == [os.sched_getaffinity(0)] * len(cpus)


def test_in_process_runs_start_no_process():
    script = f"""
import multiprocessing
from gsample.bench import parse_spec_text, run_experiment
two = parse_spec_text({TWO_TRIALS!r})
one = parse_spec_text({TWO_TRIALS.replace("trials = 2", "trials = 1")!r})
run_experiment(two, threads=1)
run_experiment(one)
run_experiment(one, threads=4)
print(len(multiprocessing.active_children()))
run_experiment(two, threads=2)
print(len(multiprocessing.active_children()))
"""
    proc = _python(script)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0 and err == ""
    in_process, forked = map(int, out.split())
    assert in_process == 0 and forked >= 1


def test_workers_die_with_their_parent():
    script = f"""
import multiprocessing, time
from gsample.bench import parse_spec_text, run_experiment
run_experiment(parse_spec_text({TWO_TRIALS!r}), threads=2)
print(*[p.pid for p in multiprocessing.active_children()], flush=True)
time.sleep(120)
"""
    proc = _python(script)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 120)
        workers = [int(pid) for pid in proc.stdout.readline().split()] \
            if ready else []
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()
    assert workers
    deadline = time.monotonic() + 2.0
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.02)
    survivors = [pid for pid in workers if _alive(pid)]
    for pid in survivors:  # a failed check leaves no process behind
        os.kill(pid, signal.SIGKILL)
    assert not survivors


def test_broken_pool_raises_once_and_is_replaced():
    spec = parse_spec_text(TWO_TRIALS)
    serial = _data(run_experiment(spec, threads=1))
    assert _data(run_experiment(spec, threads=2)) == serial
    workers = multiprocessing.active_children()
    assert workers
    for worker in workers:
        os.kill(worker.pid, signal.SIGKILL)
    with pytest.raises(BrokenProcessPool):
        run_experiment(spec, threads=2)
    assert _data(run_experiment(spec, threads=2)) == serial
    assert all(w.pid not in {p.pid for p in workers}
               for w in multiprocessing.active_children())


def test_processes_are_capped_at_the_usable_cpus(monkeypatch):
    # threads above the CPU count would leave the caller 1/threads of the
    # trials and a worker the rest, in sequence
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2:
        pytest.skip("needs two usable CPUs")
    spec = parse_spec_text(TWO_TRIALS.replace("trials = 2", "trials = 8"))
    caller_shares = []
    share_rows = bench._share_rows

    def recorded(spec, trials, *args):
        caller_shares.append(trials)
        return share_rows(spec, trials, *args)

    monkeypatch.setattr(bench, "_share_rows", recorded)
    run_experiment(spec, threads=8)
    assert caller_shares == [range(0, 8, cpus)]


def test_calls_off_the_main_thread_run_in_process():
    # workers die with the thread that forked them, so a pool forked by a
    # thread that has exited would break the next call
    script = f"""
import multiprocessing, threading
from gsample.bench import parse_spec_text, run_experiment
spec = parse_spec_text({TWO_TRIALS!r})
data = lambda result: [(r.method, r.sweep, r.trial, r.value, r.seed)
                       for r in result.rows]
results = []
thread = threading.Thread(
    target=lambda: results.append(run_experiment(spec, threads=2)))
thread.start()
thread.join()
print(len(multiprocessing.active_children()))
main = run_experiment(spec, threads=2)
print(len(multiprocessing.active_children()))
print(int(data(main) == data(results[0])))
"""
    proc = _python(script)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0 and err == ""
    in_thread, in_main, same = map(int, out.split())
    assert in_thread == 0 and in_main >= 1 and same == 1


# A parent that has run with workers starts a child that runs the same
# spec at the default thread count; the parent prints whether the child's
# rows are its own, the child's exit code, and whether its own pool still
# gives its rows afterwards.  The child runs its trials in process: a plain
# fork's inherited pool would never answer it, and a multiprocessing child
# joins its children at exit, where a pool's workers wait for tasks.
CHILD = f"""
import multiprocessing, os, pickle, sys
from gsample.bench import parse_spec_text, run_experiment

SPEC = parse_spec_text({TWO_TRIALS!r})


def data():
    return [(r.method, r.sweep, r.trial, r.value, r.seed)
            for r in run_experiment(SPEC).rows]


def child(queue):
    queue.put(data())


if __name__ == "__main__":
    mode = sys.argv[1]
    rows = data()
    if mode == "os.fork":
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read)
            with os.fdopen(write, "wb") as out:
                pickle.dump(data(), out)
            sys.exit(0)  # through the exit hooks, which leave the pool be
        os.close(write)
        with os.fdopen(read, "rb") as source:
            got = pickle.load(source)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    else:
        context = multiprocessing.get_context(mode)
        queue = context.SimpleQueue()
        process = context.Process(target=child, args=(queue,))
        process.start()
        got = queue.get()
        process.join()
        code = process.exitcode
    print(int(got == rows), code, int(data() == rows), flush=True)
"""


@pytest.mark.parametrize("mode", ["os.fork", "fork", "spawn"])
def test_a_child_process_runs_its_trials_in_process_and_exits(tmp_path,
                                                              mode):
    _needs_two_cpus()
    script = tmp_path / "child.py"
    script.write_text(CHILD, encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(script), mode], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        # the script leads a process group of its own: a hung child, a
        # worker or multiprocessing's resource tracker goes with it
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()
    assert proc.returncode == 0
    assert out.split() == ["1", "0", "1"]
    # a plain fork's child must not try, at exit, to join its parent's
    # workers, which multiprocessing would report on stderr
    assert err == ""


def test_caller_runs_its_share_at_one_blas_thread(monkeypatch):
    # the caller drops its OpenBLAS to one thread for its own share, as
    # the workers run theirs, with workers running or in process, and
    # restores the count
    libraries = bench._blas_threads()
    if len(os.sched_getaffinity(0)) < 2 or not libraries:
        pytest.skip("needs two usable CPUs and OpenBLAS")
    counts = lambda: [get() for get, _ in libraries]  # noqa: E731
    during = []
    share_rows = bench._share_rows

    def recorded(spec, trials, *args):
        during.append(counts())
        return share_rows(spec, trials, *args)

    monkeypatch.setattr(bench, "_share_rows", recorded)
    spec = parse_spec_text(TWO_TRIALS)
    original = counts()
    try:
        for _, setter in libraries:
            setter(2)
        run_experiment(spec, threads=2)
        after = counts()
        run_experiment(spec, threads=1)
    finally:
        for (_, setter), count in zip(libraries, original):
            setter(count)
    two = [2] * len(libraries)
    assert during == [[1] * len(libraries)] * 2 and after == two


# one trial that selects with fagod: at the default thread count it has a
# CPU to spare, at threads = 1 it does not
ONE_FAGOD = ("study = rmse_vs_size\nn = {n}\nK = {K}\ngraph = {graph}\n"
             "signal = {signal}\nmethods = fagod, agod, fagod-exact\n"
             "sweep = 4, 12\ntrials = 1\nbase_seed = 3\n")


def _needs_two_cpus():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two usable CPUs")


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS at two threads, numpy's default on two CPUs,
    and its count restored after the test: from n = 150 or so the
    eigensolver's last bits depend on the count."""
    libraries = bench._blas_threads()
    if not libraries:
        pytest.skip("needs OpenBLAS")
    original = [get() for get, _ in libraries]
    for _, setter in libraries:
        setter(2)
    yield [2] * len(libraries)
    for (_, setter), count in zip(libraries, original):
        setter(count)


def _blas_counts():
    return [get() for get, _ in bench._blas_threads()]


def test_workers_inherit_one_blas_thread(two_blas_threads):
    # workers forked at a run's first submit inherit the caller's one
    # OpenBLAS thread and keep it; the caller gets its two back
    _needs_two_cpus()
    bench._drop_pool(bench._pool, wait=True)  # fork afresh in the run
    run_experiment(parse_spec_text(TWO_TRIALS), threads=2)
    worker = bench._worker_pool().submit(_blas_counts).result(timeout=60)
    assert worker == [1] * len(two_blas_threads)
    assert _blas_counts() == two_blas_threads


def _watch_the_solve(monkeypatch):
    """Record, at each truth eigensolve of a fagod trial, beside the sweep
    or before it (`eigendecompose` either way), the live thread count and
    the counts of every loaded OpenBLAS."""
    seen = []

    def watched(solve):
        def call(*args, **kwargs):
            seen.append((threading.active_count(),
                         [get() for get, _ in bench._blas_threads()]))
            return solve(*args, **kwargs)
        return call

    monkeypatch.setattr(bench, "eigendecompose",
                        watched(bench.eigendecompose))
    return seen


@pytest.mark.parametrize("signal", ["GS1", "GS3", "GS2"])
@pytest.mark.parametrize("graph", ["G1", "G2", "G3"])
def test_sweep_beside_the_solve_leaves_rows_unchanged(monkeypatch,
                                                      two_blas_threads,
                                                      graph, signal):
    # GS2 keeps the full basis, from np.linalg.eigh; the others the
    # subset solver's
    _needs_two_cpus()
    seen = _watch_the_solve(monkeypatch)
    spec = parse_spec_text(ONE_FAGOD.format(n=160, K=8, graph=graph,
                                            signal=signal))
    before = threading.active_count()
    beside = _data(run_experiment(spec))
    assert threading.active_count() == before
    alone = _data(run_experiment(spec, threads=1))
    assert threading.active_count() == before
    assert beside == alone
    # the sweep's thread was alive during the solve only at the default
    assert [threads for threads, _ in seen] == [before + 1, before]


def _cycle(n):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return graph_from_adjacency(adj)


@pytest.mark.parametrize("n,signal,K", [
    # the subset solver raises on the cycle's equal lambda_10, lambda_11
    (20, "GS1", 4),
    # the full basis holds and the trial's check at K raises afterwards
    (16, "GS2", 2)], ids=["in-the-solve", "after-the-solve"])
def test_failed_truth_solve_raises_as_at_one_thread(monkeypatch, n, signal,
                                                    K):
    _needs_two_cpus()
    monkeypatch.setattr(bench, "make_graph", lambda *args: _cycle(n))
    spec = parse_spec_text(ONE_FAGOD.format(n=n, K=K, graph="G1",
                                            signal=signal))
    before = threading.active_count()
    messages = []
    for threads in (None, 1):
        with pytest.raises(ValueError) as info:
            run_experiment(spec, threads=threads)
        messages.append(str(info.value))
        assert threading.active_count() == before
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"degenerate spectrum at the bandwidth "
                                  f"(n={n}, K=")


@pytest.mark.parametrize("solve_fails", [False, True])
def test_failed_sweep_thread_raises_as_at_one_thread(monkeypatch,
                                                     solve_fails):
    # a failure on the sweep's thread reaches the caller; when the solve
    # fails too, its failure is raised, as at threads = 1, where the
    # solve runs first
    _needs_two_cpus()

    def broken(*args):
        raise RuntimeError("sweep failed")

    monkeypatch.setattr(kernels, "greedy_jacobi_sweep", broken)
    if solve_fails:
        monkeypatch.setattr(bench, "make_graph", lambda *args: _cycle(20))
    spec = parse_spec_text(ONE_FAGOD.format(n=20 if solve_fails else 60,
                                            K=4, graph="G1", signal="GS1"))
    before = threading.active_count()
    messages = []
    for threads in (None, 1):
        with pytest.raises((RuntimeError, ValueError)) as info:
            run_experiment(spec, threads=threads)
        messages.append((type(info.value), str(info.value)))
        assert threading.active_count() == before
    assert messages[0] == messages[1]
    assert messages[0][0] is (ValueError if solve_fails else RuntimeError)


@pytest.mark.parametrize("threads", [None, 1], ids=["beside", "serial"])
@pytest.mark.parametrize("key,value,match", [
    ("K", 0, "bandwidth K=0 out of range"),
    ("K", 61, "bandwidth K=61 out of range"),
    ("K", 2.5, "bandwidth must be an integer, got 2.5"),
    ("J", -1, "rotation budget must be nonnegative"),
    ("J", 2.5, "rotation budget must be an integer, got 2.5")])
def test_bad_k_or_j_raises_before_an_array_of_l_is_written(
        monkeypatch, threads, key, value, match):
    # values the parser rejects; the trial used to run the whole sweep
    # beside the solve before it raised, and to cut 2.5 down to 2
    if threads is None:
        _needs_two_cpus()
    written = []

    def recorded(name, fn):
        def call(*args, **kwargs):
            written.append(name)
            return fn(*args, **kwargs)
        return call

    for name in ("dense", "packed_upper"):
        monkeypatch.setattr(Laplacian, name,
                            recorded(name, getattr(Laplacian, name)))
    monkeypatch.setattr(kernels, "greedy_jacobi_sweep",
                        recorded("sweep", kernels.greedy_jacobi_sweep))
    spec = replace(parse_spec_text(ONE_FAGOD.format(
        n=60, K=4, graph="G1", signal="GS1")), **{key: value})
    with pytest.raises(ValueError, match=match):
        run_experiment(spec, threads=threads)
    assert written == []


def test_sweep_beside_the_solve_runs_at_one_blas_thread(monkeypatch,
                                                        two_blas_threads):
    # the solve beside the sweep, and the solve alone, run at one OpenBLAS
    # thread; the caller's count is restored after each call
    _needs_two_cpus()
    seen = _watch_the_solve(monkeypatch)
    spec = parse_spec_text(ONE_FAGOD.format(n=60, K=4, graph="G1",
                                            signal="GS1"))
    counts = lambda: [get() for get, _ in bench._blas_threads()]  # noqa: E731
    afters = []
    for threads in (None, 1):
        run_experiment(spec, threads=threads)
        afters.append(counts())
    one = [1] * len(two_blas_threads)
    assert seen == [(threading.active_count() + 1, one),
                    (threading.active_count(), one)]
    assert afters == [two_blas_threads] * 2


@pytest.mark.parametrize("trials", [1, 3])
def test_rows_do_not_depend_on_the_blas_thread_count(two_blas_threads,
                                                     trials):
    # a trial runs at one OpenBLAS thread in the caller as in a worker,
    # whatever the caller's own count: the eigensolver's last bits
    # depend on it at this n
    spec = parse_spec_text(ONE_FAGOD.format(
        n=160, K=8, graph="G1", signal="GS1").replace(
        "trials = 1", f"trials = {trials}"))
    runs = [_data(run_experiment(spec, threads=threads))
            for threads in (1, None, 2)]
    assert runs == [runs[0]] * 3
