"""Unit tests of the benchmark's own arithmetic and tracing.

Run with: python3 -m pytest perfbench -q
"""

import json
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from calibrate import Calibration, Kernel  # noqa: E402
import summary  # noqa: E402
from spans import TARGETS, Tracer, installed  # noqa: E402

SMALL_SPEC = ("study = rmse_vs_size\nn = 30\nK = 4\n"
              "methods = fagod, agod, dopt\nsweep = 4, 6\n")


def span(start, end, parent=-1):
    return SimpleNamespace(start=start, end=end, parent=parent)


@pytest.mark.parametrize("n, value, percentile", [
    (30, 20.0, 100.0 * 20 / 30),   # ranks 21..30 lie beyond
    (100, 90.0, 90.0),
    (11, 1.0, 100.0 / 11),
    (10, 10.0, 100.0),              # no percentile has ten beyond: the max
    (1, 1.0, 100.0),
])
def test_tail_leaves_ten_beyond(n, value, percentile):
    values = [float(v) for v in range(n, 0, -1)]
    got, pct, count = summary.tail(values)
    assert (got, count) == (value, n)
    assert pct == pytest.approx(percentile)
    if n > 10:
        assert sum(v > got for v in values) == 10


def test_tail_rejects_empty():
    with pytest.raises(ValueError):
        summary.tail([])


def test_self_time_subtracts_direct_children_only():
    spans = [span(0.0, 10.0), span(1.0, 3.0, 0), span(5.0, 9.0, 0),
             span(6.0, 7.0, 2)]
    assert summary.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_takes_union_of_overlapping_children_clipped_to_parent():
    spans = [span(0.0, 10.0), span(1.0, 4.0, 0), span(3.0, 6.0, 0),
             span(8.0, 12.0, 0)]
    assert summary.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_self_times_sum_to_root_duration():
    spans = [span(0.0, 10.0), span(1.0, 3.0, 0), span(1.5, 2.0, 1),
             span(4.0, 9.0, 0), span(5.0, 8.0, 3)]
    assert sum(summary.self_times(spans)) == pytest.approx(10.0)


def test_step_yield_desk_sweep():
    # four nested greedy methods, budgets 5..30, two trials
    calls = [((method, trial), m) for trial in range(2)
             for method in ("fagod", "agod", "dopt", "aopt")
             for m in (5, 10, 15, 20, 25, 30)]
    assert summary.step_yield(calls) == pytest.approx(30 / 105)


def test_step_yield_without_repeats_is_one():
    assert summary.step_yield([(("fagod", 0), 80)]) == 1.0
    assert summary.step_yield([(("agod", 0), 40), (("agod", 0), 80),
                               (("agod", 1), 80)]) == pytest.approx(160 / 200)
    with pytest.raises(ValueError):
        summary.step_yield([])


def test_missing_target_is_absent_and_the_rest_still_traced():
    from gsample.bench import parse_spec_text, run_experiment
    import gsample.bench

    original = gsample.bench.gen_sensor
    targets = TARGETS + (("gsample.bench", "no_such_function", "x.y"),)
    tracer = Tracer()
    spec = parse_spec_text(SMALL_SPEC + "trials = 1\n")
    with installed(tracer, targets) as missing:
        assert gsample.bench.gen_sensor is not original
        with tracer.op_span(0):
            result = run_experiment(spec)
    assert gsample.bench.gen_sensor is original
    assert missing == ["no_such_function"]
    assert len(result.rows) == 6
    values, problems, unreadable = layers.op_values(tracer, 0, trials=1, K=4)
    assert problems == [] and unreadable == []
    assert values["graphs.laplacian_calls"] == 2
    assert values["selection.calls"] == 6
    assert values["selection.step_yield"] == pytest.approx(6 * 3 / (10 * 3))
    assert values["filters.rotations"] > 0
    assert values["path.eigfree_ms"] > 0 and values["path.spectral_ms"] > 0
    by_name = layers.self_time_by_name(tracer, 0)
    root = tracer.spans[0]
    op_s = root.end - root.start
    assert sum(t for t, _ in by_name.values()) == pytest.approx(op_s)
    # the layers' share excludes the runner's own time
    assert values["trace.accounted_frac"] == pytest.approx(
        1.0 - values["bench.self_ms"] / (op_s * 1e3))
    assert values["trace.accounted_frac"] < 1.0


def test_trials_on_worker_threads_hang_off_the_op_root():
    from gsample.bench import parse_spec_text, run_experiment

    tracer = Tracer()
    spec = parse_spec_text(SMALL_SPEC + "trials = 8\n")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to expose races
    try:
        with installed(tracer), tracer.op_span(0):
            run_experiment(spec, threads=4)  # more workers than cores
    finally:
        sys.setswitchinterval(interval)
    root, *layer_spans = tracer.spans
    assert root.parent == -1
    by_index = dict(enumerate(tracer.spans))
    for s in layer_spans:
        assert s.parent >= 0
        parent = by_index[s.parent]
        # a parent encloses its child, so no span hangs off another thread's
        assert parent.start <= s.start and s.end <= parent.end
    top = [s.name for s in layer_spans if s.parent == 0]
    assert top.count("graphs.gen") == 8
    values, problems, unreadable = layers.op_values(tracer, 0, trials=8, K=4)
    assert problems == [] and unreadable == []
    assert values["graphs.laplacian_calls"] == 2
    assert values["selection.calls"] == 6


def test_op_without_layer_spans_is_unreadable_not_zero():
    tracer = Tracer()
    with tracer.op_span(0):
        pass  # as if every trial ran in another process
    values, problems, unreadable = layers.op_values(tracer, 0, trials=1, K=4)
    assert values == {} and problems == [] and len(unreadable) == 1
    assert layers.memory_values(tracer).keys() == {"peak_alloc_mb"}


def test_metric_names_agree_with_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(layers.PER_LAYER)
    assert not {m["name"] for m in spec["end_to_end"]} & set(run.UNGATED)
    assert run.load_metrics()["end_to_end"]["setup_s"] == "s"


def test_figure_with_changed_inputs_is_skipped_not_fatal():
    from gsample.bench import parse_spec_text, run_experiment

    tracer = Tracer()
    spec = parse_spec_text("study = rmse_vs_size\nn = 30\nK = 4\n"
                           "methods = fagod\nsweep = 4\ntrials = 1\n")
    with installed(tracer), tracer.op_span(0):
        run_experiment(spec)
    # as if a refactor dropped the dense filter from approximate_lowpass
    tracer.calls = [replace(c, result=SimpleNamespace(bandwidth=4))
                    if c.target == "approximate_lowpass" else c
                    for c in tracer.calls]
    values, problems, unreadable = layers.op_values(tracer, 0, trials=1, K=4)
    assert problems == []
    assert [u.split(":")[0] for u in unreadable] == ["filter_quality"]
    assert "filters.filter_err" not in values
    assert values["filters.rotations"] > 0


def test_absent_metrics_follow_their_targets():
    absent = layers.absent_metrics(["gen_sensor"])
    assert {"graphs.gen_ms", "graphs.peak_mb", "graphs.connect_draws"} <= set(absent)
    assert "spectral.eigh_ms" not in absent
    assert layers.absent_metrics([]) == []


def test_memory_peaks_nest():
    tracer = Tracer(memory=True, capture=False)
    tracemalloc.start()
    try:
        with tracer.op_span(0):
            outer = tracer.enter("outer")
            inner = tracer.enter("inner")
            block = bytearray(4 << 20)
            del block
            tracer.exit(inner)
            tracer.exit(outer)
    finally:
        tracemalloc.stop()
    root, outer_span, inner_span = tracer.spans
    assert inner_span.peak >= 4 << 20
    assert outer_span.peak >= inner_span.peak
    assert root.peak >= outer_span.peak


def test_calibration_scales_to_reference_speed():
    cal = Calibration(Kernel(n=8, rotations=5, dense=4, reference_ms=20.0))
    assert cal.seconds() > 0
    # an op of 0.9 s next to a 30 ms kernel pass takes 0.6 s where the
    # kernel takes its 20 ms reference
    assert cal.scaled(0.9, 0.030) == pytest.approx(0.6)
