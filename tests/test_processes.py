"""Trials in forked worker processes: failures, lifetimes, a broken pool,
the process cap and the forking thread.

Rows do not depend on the process count (`test_bench.py`); these tests
check what the processes themselves do.  Scripts that must start from a
process without a pool run in a fresh interpreter.
"""

import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import pytest

import gsample.bench as bench
from gsample.bench import ExperimentSpec, parse_spec_text, run_experiment

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="trials fork worker processes on "
                                "Linux only")

SRC = Path(bench.__file__).resolve().parents[1]

TWO_TRIALS = ("study = rmse_vs_size\nn = 24\nK = 4\nmethods = agod, fagod\n"
              "sweep = 4, 8\ntrials = 2\n")


def _python(script, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, text=True, **kwargs)


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
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
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

    def recorded(spec, trials, use_blue):
        caller_shares.append(trials)
        return share_rows(spec, trials, use_blue)

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
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    in_thread, in_main, same = map(int, out.split())
    assert in_thread == 0 and in_main >= 1 and same == 1


def test_caller_runs_its_share_at_one_blas_thread(monkeypatch):
    # with workers running, the caller drops its OpenBLAS to one thread
    # for its own share and restores the count; in process it keeps it
    libraries = bench._blas_threads()
    if len(os.sched_getaffinity(0)) < 2 or not libraries:
        pytest.skip("needs two usable CPUs and OpenBLAS")
    counts = lambda: [get() for get, _ in libraries]  # noqa: E731
    during = []
    share_rows = bench._share_rows

    def recorded(spec, trials, use_blue):
        during.append(counts())
        return share_rows(spec, trials, use_blue)

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
    assert during == [[1] * len(libraries), two] and after == two
