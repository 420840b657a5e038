"""Spans around the runner's calls into each layer, recorded from outside.

Nothing under `src/` is changed: the wrappers replace module attributes
under the names the runner calls them by, and put the originals back when
the `installed` block ends.  Spans stay in memory as (name, start, end,
parent, op) and are written out by the caller when the run ends.

Each thread keeps its own stack of open spans.  A span opened on a thread
with no open span of its own, such as a trial on a worker thread of the
runner, gets the current op's root span as its parent.

In a memory pass the tracer also keeps each span's `tracemalloc` peak,
measured above the allocation level at the span's start.  tracemalloc has
one peak for the whole process, so layer peaks are exact only for an op
that runs on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
import tracemalloc
from dataclasses import dataclass

ROOT = "bench.op"


def _select_name(args, kwargs):
    method = args[0] if args else kwargs.get("method")
    return f"selection.{method}"


# (module, attribute, span name); a callable picks the name from the call.
TARGETS = (
    ("gsample.bench", "gen_sensor", "graphs.gen"),
    ("gsample.bench", "build_laplacian", "graphs.laplacian"),
    ("gsample.bench", "eigendecompose", "spectral.eigh"),
    ("gsample.bench", "gen_signal", "spectral.sample"),
    ("gsample.bench", "observe", "spectral.sample"),
    ("gsample.bench", "approximate_lowpass", "filters.lowpass"),
    ("gsample.filters", "greedy_jacobi", "filters.jacobi"),
    ("gsample.filters", "lowpass_from_givens", "filters.synth"),
    ("gsample.bench", "greedy_select", _select_name),
    ("gsample.bench", "greedy_doptimal", "selection.dopt"),
    ("gsample.bench", "greedy_aoptimal", "selection.aopt"),
    ("gsample.bench", "random_select", "selection.random"),
    ("gsample.bench", "filter_reconstruct", "reconstruction.filter"),
    ("gsample.bench", "biased_reconstruct", "reconstruction.spectral"),
    ("gsample.bench", "blue_reconstruct", "reconstruction.spectral"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    peak: int = 0


@dataclass(frozen=True)
class Call:
    """A wrapped call kept for the quality figures computed after its op."""

    span: int
    target: str
    args: tuple
    kwargs: dict
    result: object


class Tracer:
    """Span recorder; `wrap` makes the wrappers that `installed` puts in place."""

    def __init__(self, memory: bool = False, capture: bool = True):
        self.spans = []
        self.calls = []
        self.memory = memory
        self.capture = capture
        self.op = -1
        self.root = -1  # index of the current op's root span
        self._lock = threading.Lock()
        self._local = threading.local()

    def _open(self):
        """This thread's open spans: [(index, [allocated at start, peak])]."""
        if not hasattr(self._local, "open"):
            self._local.open = []
        return self._local.open

    def enter(self, name: str) -> int:
        open_spans = self._open()
        peaks = None
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if open_spans:
                outer = open_spans[-1][1]
                outer[1] = max(outer[1], peak)
            tracemalloc.reset_peak()
            peaks = [current, current]
        parent = open_spans[-1][0] if open_spans else self.root
        with self._lock:
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                                   self.op))
            index = len(self.spans) - 1
        open_spans.append((index, peaks))
        return index

    def exit(self, index: int) -> None:
        end = time.perf_counter()
        open_spans = self._open()
        _, peaks = open_spans.pop()
        span = self.spans[index]
        span.end = end
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            base, running = peaks
            top = max(running, peak)
            span.peak = top - base
            if open_spans:
                outer = open_spans[-1][1]
                outer[1] = max(outer[1], top)

    @contextlib.contextmanager
    def op_span(self, op: int):
        """Root span of one op; its calls are collected afresh."""
        self.op = op
        self.calls = []
        self.root = -1
        index = self.enter(ROOT)
        self.root = index
        try:
            yield index
        finally:
            self.exit(index)
            self.root = -1

    def wrap(self, fn, target: str, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if self.capture:
                self.calls.append(Call(index, target, args, kwargs, result))
            return result
        return traced

    def op_spans(self, op: int):
        """(index, span) pairs of one op, in start order."""
        return [(i, s) for i, s in enumerate(self.spans) if s.op == op]


@contextlib.contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every target that exists; yield the names of those that do not."""
    originals = []
    missing = []
    try:
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(attr)
                continue
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(fn, attr, name))
        yield missing
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)
