"""Order statistics and span arithmetic used by the benchmark report."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND):
    """Highest nearest-rank percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample count).  The value is the
    (n - beyond)-th smallest sample, so exactly `beyond` samples rank above
    it.  With `beyond` samples or fewer no such percentile exists; the
    maximum is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return float(ordered[-1]), 100.0, n
    rank = n - beyond
    return float(ordered[rank - 1]), 100.0 * rank / n, n


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    `spans` is a sequence of objects with `start`, `end` and `parent` (the
    index of the parent span, or -1).  Child intervals are clipped to the
    parent before their union is taken.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(spans[c].start, s.start), min(spans[c].end, s.end))
                   for c in children[i]]
        clipped = [(a, b) for a, b in clipped if b > a]
        out.append((s.end - s.start) - covered_length(clipped))
    return out


def step_yield(calls) -> float:
    """Share of greedy steps that a prefix-reusing runner would still take.

    `calls` holds (group, steps) per greedy selection call; a group is one
    deterministic method on one trial, whose selections are nested, so only
    its largest budget is needed.  Returns sum of per-group maxima over the
    sum of all steps.
    """
    largest = {}
    total = 0
    for group, steps in calls:
        largest[group] = max(largest.get(group, 0), steps)
        total += steps
    if total == 0:
        raise ValueError("no greedy steps")
    return sum(largest.values()) / total
