"""Correctness checks on the program's outputs.

Each function returns a list of problems; an empty list means the check
passed.  The run counts an op with any problem as failed.
"""

from __future__ import annotations

import math


def row_problems(result, spec):
    """run_experiment's own contract plus finite values in every row."""
    problems = []
    expected = len(spec.methods) * len(spec.sweep) * spec.trials
    if len(result.rows) != expected:
        problems.append(f"row count {len(result.rows)} != expected {expected}")
    for row in result.rows:
        if not (math.isfinite(row.value) and math.isfinite(row.wall_ms)):
            problems.append(f"non-finite value in row {row}")
        elif row.value < 0:
            problems.append(f"negative RMSE in row {row}")
    return problems


def data_columns(result):
    """Every CSV column except wall_ms, with values at full precision."""
    return [(r.study, r.graph, r.signal, r.method, repr(r.sweep), r.trial,
             repr(float(r.value)), r.seed) for r in result.rows]


def repeat_problems(first, again, label):
    if data_columns(first) != data_columns(again):
        return [f"data columns differ when the first op is repeated ({label})"]
    return []


def oracle_problems(seed: int, n: int = 30, K: int = 4, M: int = 8):
    """Incremental agod/fagod greedy against plain greedy on dense objectives.

    Runs on one small G1 instance drawn from `seed`, with the exact
    low-pass filter as a plain matrix for fagod; both sides break ties
    toward the smallest node index, so the picks must agree exactly.
    """
    from gsample.filters import exact_lowpass
    from gsample.graphs import build_laplacian, gen_sensor
    from gsample.oracle import greedy_minimize
    from gsample.selection import (DEFAULT_MU, greedy_select, objective_agod,
                                   objective_fagod)
    from gsample.spectral import eigendecompose

    basis = eigendecompose(build_laplacian(gen_sensor(n, 6, seed)))
    T = exact_lowpass(basis, K)
    mu = DEFAULT_MU
    problems = []
    fast = greedy_select("agod", M, basis=basis, K=K, mu=mu).indices
    slow, _ = greedy_minimize(lambda s: objective_agod(s, basis, K, mu), n, M)
    if list(fast) != list(slow):
        problems.append(f"agod greedy {list(fast)} != oracle {slow}")
    fast = greedy_select("fagod", M, filt=T, mu=mu).indices
    slow, _ = greedy_minimize(lambda s: objective_fagod(s, T, mu), n, M)
    if list(fast) != list(slow):
        problems.append(f"fagod greedy {list(fast)} != oracle {slow}")
    return problems
