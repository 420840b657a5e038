"""Config-driven experiment runner.

Experiments are described by flat `key = value` spec files (lists are
comma-separated) and produce CSV rows
`study,graph,signal,method,sweep,trial,value,wall_ms,seed`.  Every data
column is a pure function of the spec, so reruns are byte-identical
whatever the number of processes the trials run in: the caller and
persistent forked workers, each sent its share of the trials over a pipe
(`run_experiment` says when they all run in process); wall_ms is the
only non-reproducible column.  In the RMSE studies a trial solves the
loaded reconstructions of its rows together (`_rmse_trial_rows`), so a
loaded row's wall_ms is its own selection, noise and Gram time plus an
equal share of that batch; a batch that fails is solved again one row at
a time, so that the first failing row raises.  A trial's basis and Givens
filter are `eigendecompose`'s and `approximate_lowpass`'s;
`run_experiment` says when the Jacobi sweep runs beside the eigensolve,
and `_truth_and_filter` how.

Studies (each declared once, in `STUDIES`; the methods are in `METHODS`):

* rmse_vs_size   - reconstruction RMSE as the sampling budget grows;
* rmse_vs_snr    - RMSE under varying observation noise, budget = bandwidth;
* rmse_vs_n      - RMSE across graph sizes with bandwidth n/20;
* objective_gap  - max-diag versus log-det objective values along greedy paths;
* suboptimality  - exact relative suboptimality on exhaustively solvable graphs;
* alpha          - empirical supermodularity constants (oracle subcommand only).
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import functools
import math
import numbers
import os
import pickle
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

# biased_reconstruct and filter_reconstruct are not called here;
# perfbench's tracer wraps them under this module's name
from .filters import (_check_budget, _greedy_jacobi, approximate_lowpass,
                      exact_lowpass, lowpass_from_givens, rotation_budget)
from .graphs import (ER_P, MAX_CONNECT_ATTEMPTS, SENSOR_KNN, build_laplacian,
                     gen_community, gen_er, gen_sensor)
from .oracle import (ALPHA_MAX_NODES, COMB_GUARD, _check_mu, empirical_alpha,
                     relative_suboptimality)
from .reconstruction import (_loaded_system, biased_reconstruct,  # noqa: F401
                             blue_reconstruct, filter_reconstruct,
                             loaded_rmses, rmse, snr_to_sigma2)
from .rng import child_seed
from .selection import (DEFAULT_MU, greedy_aoptimal, greedy_doptimal,
                        greedy_eoptimal, greedy_select, objective_agod,
                        objective_dopt, objective_fagod, random_select)
from .spectral import (SIGNAL_MODELS, _check_bandwidth, _samples, check_gap,
                       eigendecompose, gen_signal, observe)

GRAPH_MODELS = ("G1", "G2", "G3")

GAP_CURVES = ("G-G", "G-D", "D-D")

CSV_HEADER = "study,graph,signal,method,sweep,trial,value,wall_ms,seed"


class SpecError(ValueError):
    """Raised for malformed or inconsistent experiment specs."""


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec:
    """A parsed spec.  The defaults below, and a study's `defaults` in
    STUDIES for the other fields, are the only defaults of the spec keys."""

    study: str
    # per-study defaults in STUDIES
    methods: tuple
    n: int
    K: object                 # int, "model", or "auto" (= n // 20)
    trials: int
    sweep: tuple
    graph: str = "G1"
    signal: str = "GS1"
    mu: float = DEFAULT_MU
    J: object = "auto"        # int or "auto" (= ceil(6 n log10 n))
    base_seed: int = 0
    sigma2: float = 5e-3
    out: str = ""             # "" means f"{study}.csv"
    knn: int = SENSOR_KNN
    p: float = ER_P

    def __post_init__(self):
        if not self.out:
            object.__setattr__(self, "out", f"{self.study}.csv")


# a spec file sets the fields of ExperimentSpec, by name
_SPEC_KEYS = tuple(field.name for field in fields(ExperimentSpec))


@dataclass(frozen=True)
class ResultRow:
    study: str
    graph: str
    signal: str
    method: str
    sweep: object
    trial: int
    value: float
    wall_ms: float
    seed: int


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple


# ---------------------------------------------------------------------------
# spec parsing and validation

# numeric keys and their types; K and J also take the words in _WORDS
_NUMERIC_KEYS = {"n": int, "K": int, "mu": float, "J": int, "trials": int,
                 "base_seed": int, "sigma2": float, "knn": int, "p": float}
_WORDS = {"K": ("model", "auto"), "J": ("auto",)}
# (range test, what it asks) of a numeric key; the graph settings n, knn
# and p are checked by graph_problem
_RANGES = {
    "K": (lambda v: v >= 1, "positive"),
    "mu": (lambda v: v > 0, "positive"),
    "J": (lambda v: v >= 0, "nonnegative"),
    "trials": (lambda v: v >= 1, "at least 1"),
    "sigma2": (lambda v: v >= 0, "nonnegative"),
}
_MODEL_KEYS = {"graph": GRAPH_MODELS, "signal": SIGNAL_MODELS}


def _parse_scalar(key, value, lineno, source, kind):
    try:
        number = kind(value)
    except ValueError:
        raise SpecError(
            f"{source}:{lineno}: {key} must be {kind.__name__}, got {value!r}") from None
    if kind is float and not math.isfinite(number):
        raise SpecError(f"{source}:{lineno}: {key} must be finite, got {value!r}")
    return number


def _comma_list(key, value, where) -> tuple:
    """The stripped items of a comma-separated value: empty items are
    dropped, and an empty list is rejected."""
    items = tuple(t for t in (t.strip() for t in value.split(",")) if t)
    if not items:
        raise SpecError(f"{where}: {key} must not be empty")
    return items


def parse_spec_text(text: str, source: str = "<spec>") -> ExperimentSpec:
    """Parse and fully validate a flat key=value experiment spec.

    Only the keys present in the text are set; every other field keeps
    its default from `ExperimentSpec` or the study's entry in `STUDIES`.
    """
    data = {}
    linenos = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SpecError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SPEC_KEYS:
            raise SpecError(f"{source}:{lineno}: unknown key {key!r}")
        if key in data:
            raise SpecError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise SpecError(f"{source}:{lineno}: empty value for {key!r}")
        data[key] = value
        linenos[key] = lineno

    def anchor(key):
        return f"{source}:{linenos[key]}" if key in linenos else source

    if "study" not in data:
        raise SpecError(f"{source}: missing required key 'study'")
    study = data.pop("study")
    if study not in STUDIES:
        raise SpecError(f"{anchor('study')}: unknown study {study!r} "
                        f"(expected one of {', '.join(STUDIES)})")
    entry = STUDIES[study]
    if entry.fixed_methods and "methods" in data:
        raise SpecError(f"{anchor('methods')}: methods are fixed for study {study!r}")
    swept, why = entry.swept
    if swept in data:
        raise SpecError(f"{anchor(swept)}: {why}; remove the {swept} key")

    values = {}
    for key, value in data.items():
        if key in _MODEL_KEYS and value not in _MODEL_KEYS[key]:
            raise SpecError(f"{anchor(key)}: unknown {key} model {value!r}")
        if key in _NUMERIC_KEYS and value not in _WORDS.get(key, ()):
            value = _parse_scalar(key, value, linenos[key], source,
                                  _NUMERIC_KEYS[key])
            ok, rule = _RANGES.get(key, (None, None))
            if ok and not ok(value):
                raise SpecError(f"{anchor(key)}: {key} must be {rule}")
        elif key == "methods":
            value = _comma_list(key, value, anchor(key))
            for m in value:
                if m not in METHODS:
                    raise SpecError(f"{anchor(key)}: unknown method {m!r} "
                                    f"(expected one of {', '.join(METHODS)})")
            if len(set(value)) != len(value):
                raise SpecError(f"{anchor(key)}: duplicate method")
        elif key == "sweep":
            kind = int if entry.sweeps in ("budget", "size") else float
            value = tuple(_parse_scalar(key, t, linenos[key], source, kind)
                          for t in _comma_list(key, value, anchor(key)))
            if len(set(value)) != len(value):
                raise SpecError(f"{anchor(key)}: duplicate sweep value")
        values[key] = value

    spec = ExperimentSpec(study=study, **{**entry.defaults, **values})
    _validate_consistency(spec, anchor)
    return spec


def parse_spec_file(path) -> ExperimentSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise SpecError(f"{path}: no such spec file") from None
    return parse_spec_text(text, source=str(path))


def resolve_k(spec: ExperimentSpec, n: int) -> int:
    """The bandwidth K of a graph of n nodes; a number is returned as it
    is, for its user to check."""
    if spec.K == "model":
        return SIGNAL_MODELS[spec.signal][0]
    if spec.K == "auto":
        return max(1, n // 20)
    return spec.K


def resolve_j(spec: ExperimentSpec, n: int) -> int:
    """The rotation budget J of a graph of n nodes; a number is returned
    as it is, for its user to check."""
    return rotation_budget(n) if spec.J == "auto" else spec.J


def _signal_bandwidth(spec: ExperimentSpec, n: int) -> int:
    """Bandwidth of the ground-truth signal: the resolved K under K = auto,
    the signal model's own otherwise."""
    return resolve_k(spec, n) if spec.K == "auto" else \
        SIGNAL_MODELS[spec.signal][0]


def _validate_consistency(spec: ExperimentSpec, where):
    entry = STUDIES[spec.study]
    # every graph size the spec builds, and the key that sets them
    size_key, sizes = ("sweep", spec.sweep) if entry.sweeps == "size" \
        else ("n", (spec.n,))
    for n in sizes:
        if problem := graph_problem(spec.graph, n, spec.knn, spec.p):
            key, message = problem
            raise SpecError(f"{where(size_key if key == 'n' else key)}: {message}")
        k_eff = resolve_k(spec, n)
        if k_eff > n:
            raise SpecError(f"{where('K')}: bandwidth K={k_eff} exceeds n={n}")
        width = _signal_bandwidth(spec, n)
        if entry.rows is _rmse_trial_rows and width > n:
            raise SpecError(f"{where(size_key)}: signal {spec.signal} has "
                            f"bandwidth {width} > n={n}")
    if entry.sweeps == "budget":
        for m in spec.sweep:
            if not 1 <= m <= spec.n:
                raise SpecError(f"{where('sweep')}: budget {m} out of range "
                                f"[1, {spec.n}]")
    if entry.sweeps == "snr":
        for snr in spec.sweep:
            try:
                snr_to_sigma2(snr)
            except OverflowError:
                raise SpecError(f"{where('sweep')}: SNR {snr} dB gives a "
                                "noise variance past the float range") from None
    if spec.study == "suboptimality":
        worst = max(math.comb(spec.n, m) for m in spec.sweep)
        if worst > COMB_GUARD:
            raise SpecError(f"{where('n')}: exhaustive search needs "
                            f"C(n, M) <= {COMB_GUARD}")
    if spec.study == "alpha":
        if spec.n > ALPHA_MAX_NODES:
            raise SpecError(f"{where('n')}: alpha enumeration limited to "
                            f"n <= {ALPHA_MAX_NODES}")
        if any(v <= 0 for v in spec.sweep):
            raise SpecError(f"{where('sweep')}: alpha study sweeps mu values > 0")


# ---------------------------------------------------------------------------
# per-trial machinery

def graph_problem(model: str, n: int, knn: int, p: float):
    """The setting at fault ("n", "knn" or "p") and the message of the first
    rule `make_graph(model, n, seed, knn, p)` breaks, or None: the one check
    of the graph settings, for specs and `graph gen`.  G2 fails when all
    MAX_CONNECT_ATTEMPTS draws are disconnected with a chance above 1e-6:
    P(connected) ~ exp(-lambda), lambda = n (1 - p)^(n - 1) the expected
    number of isolated nodes."""
    if n < 2:
        return "n", f"graph size {n} is below 2"
    if knn < 1:
        return "knn", "knn must be at least 1"
    if not 0 < p <= 1:
        return "p", "p must be in (0, 1]"
    if model == "G3" and n < 8:
        return "n", "community graphs need n >= 8"
    if model == "G2":
        lam = n * (1.0 - p) ** (n - 1)
        if (1.0 - math.exp(-lam)) ** MAX_CONNECT_ATTEMPTS > 1e-6:
            return "n", (f"G(n={n}, p={p}) is too rarely connected for "
                         f"{MAX_CONNECT_ATTEMPTS} draws")
    return None


def make_graph(model: str, n: int, seed: int, knn: int, p: float):
    """A graph of model G1 (sensor), G2 (Erdos-Renyi) or G3 (community).

    knn is clamped to n - 1, so toy instances smaller than the neighbour
    count still build.  Serves `run` and `graph gen`; it calls the
    generators by this module's names, which perfbench's tracer wraps.
    """
    if model == "G1":
        return gen_sensor(n, min(knn, n - 1), seed)
    if model == "G2":
        return gen_er(n, p, seed)
    return gen_community(n, seed)


def _truth_and_filter(lap, width, K: int, J: int):
    """`eigendecompose(lap, width)` and `approximate_lowpass(lap, K, J)`,
    bit for bit, with the Jacobi sweep on a thread started here beside the
    solve (`run_experiment` has every OpenBLAS at one thread).

    The sweep's packed triangle and diagonal are written first, and its
    thread starts before `eigendecompose` is called, since scipy's f2py
    wrapper of LAPACK's subset `dsyevr` holds the interpreter lock for its
    whole solve, and the compiled sweep releases it.  A failure raises as
    in the serial calls: the solver's, once the sweep's thread is joined,
    before the sweep's.
    """
    with ThreadPoolExecutor(1) as second:  # joined on exit
        sweep = second.submit(_greedy_jacobi, lap.packed_upper(),
                              lap.diagonal(), J)
        basis = eigendecompose(lap, width)
    givens, eigs, perm = sweep.result()
    return basis, lowpass_from_givens(givens, perm, K, eigs)


class _TrialContext:
    """Per-trial objects shared by every method and sweep value.

    The basis (`eigendecompose`) and, when a method selects on the Givens
    filter (`givens` in METHODS), that filter (`approximate_lowpass`) are
    built with the context; `filter` is None otherwise.  The signal is
    drawn at its first use.  Only the eigenpairs some consumer reads are
    computed: the K lowest for the selection and reconstruction
    bandwidth, or the signal model's bandwidth if larger.
    GS2's tail touches every coefficient, so it keeps the full basis.
    Both bandwidths must leave a spectral gap wherever the basis holds
    the next eigenvalue.  K, and J for the Givens filter, are checked
    before the graph is drawn.  With `spare_cpu` a fagod trial gets the
    two from `_truth_and_filter`.  The Laplacian holds only the graph's
    edges, so it lives as long as the context is being built.
    """

    def __init__(self, spec: ExperimentSpec, n: int, trial: int,
                 spare_cpu: bool = False):
        self.spec = spec
        self.n = n
        self.trial = trial
        self.K = resolve_k(spec, n)
        _check_bandwidth(self.K, n)
        # objective_gap's methods are curve names, which select on the basis
        givens = any(METHODS[m].givens for m in spec.methods if m in METHODS)
        J = resolve_j(spec, n)
        if givens:
            _check_budget(J)
        self.mu = spec.mu
        seed = child_seed(spec.base_seed, "graph", spec.graph, n, trial)
        lap = build_laplacian(make_graph(spec.graph, n, seed, spec.knn,
                                         spec.p))
        self._signal_k = _signal_bandwidth(spec, n)
        width = None if SIGNAL_MODELS[spec.signal][1] is not None else \
            max(self.K, self._signal_k)
        if givens and spare_cpu:
            self.basis, self.filter = _truth_and_filter(lap, width, self.K, J)
        else:
            self.basis = eigendecompose(lap, width)
            self.filter = approximate_lowpass(lap, self.K, J) if givens \
                else None
        for bandwidth in (self.K, self._signal_k):
            check_gap(self.basis.eigenvalues, bandwidth, n)
        # the largest sampling budget any row of this trial selects
        self._largest = max(spec.sweep) \
            if STUDIES[spec.study].sweeps == "budget" else self.K
        self._prefix = {}
        self._signal = None
        self._loading = None  # mu I, built at the first loaded row

    @property
    def signal(self):
        if self._signal is None:
            self._signal = gen_signal(
                self.spec.signal, self.basis,
                child_seed(self.spec.base_seed, "signal", self.spec.signal,
                           self.n, self.trial),
                bandwidth=self._signal_k)
        return self._signal

    def select(self, method: str, M: int) -> tuple:
        """Indices of a sampling set of size M; a prefix method of
        `METHODS` runs once per trial.

        Such a method runs at the largest budget the trial needs, and every
        smaller budget gets a prefix of that selection.
        """
        entry = METHODS[method]
        if not entry.prefix:
            return entry.select(self, M).indices
        if len(self._prefix.get(method, ())) < M:
            self._prefix[method] = entry.select(
                self, max(M, self._largest)).indices
        return self._prefix[method][:M]

    def loaded_system(self, method: str, indices, sigma2: float, seed: int):
        """(V, Z, c) of a loaded row: the n x K factor V that the per-row
        path solves on, the Givens filter's for a `givens` method
        (`filter_reconstruct`) and V_K otherwise (`biased_reconstruct`),
        and the loaded Gram Z = V_S^T V_S + mu I and c = V_S^T y of the
        samples y that `observe(self.signal, indices, sigma2, seed)` draws.  Checks what
        `observe` and the loaded reconstructions check, in their order."""
        rows, y = _samples(self.signal.values, indices, sigma2, seed)
        if self._loading is None:
            _check_mu(self.mu)
            self._loading = self.mu * np.eye(self.K)
        factor = self.filter.factor if METHODS[method].givens \
            else self.basis.low_frequency(self.K)
        return (factor, *_loaded_system(factor, rows, y, self._loading))


def _trial_seed(spec: ExperimentSpec, trial: int, sweep_value) -> int:
    return child_seed(spec.base_seed, spec.study, trial, sweep_value)


@dataclass(slots=True)
class _LoadedRow:
    """A loaded row waiting for its trial's batch: its key, its own time,
    and its factor and system."""

    method: str
    sweep: object
    seed: int
    wall_ms: float
    factor: object
    gram: object
    rhs: object


def _row_error(spec: ExperimentSpec, method: str, sweep_value, trial: int,
               exc: Exception) -> RuntimeError:
    return RuntimeError(f"{spec.study} failed (method={method}, "
                        f"sweep={sweep_value}, trial={trial}): {exc}")


def _finish_batch(spec: ExperimentSpec, trial: int, ctx: _TrialContext,
                  batch: list) -> list:
    """The ResultRows of the loaded rows in `batch`, all of `ctx`, scored
    by one `loaded_rmses` call.  A batch that fails is solved again one
    row at a time, and the first failing row raises the per-row path's
    error; each row's wall_ms gains an equal share of the batch's time."""
    if not batch:
        return []
    t0 = time.perf_counter()
    try:
        values = loaded_rmses([row.factor for row in batch],
                              [row.gram for row in batch],
                              [row.rhs for row in batch],
                              ctx.signal.values).tolist()
    except ValueError:  # LinAlgError included
        for row in batch:
            try:
                loaded_rmses([row.factor], [row.gram], [row.rhs],
                             ctx.signal.values)
            except ValueError as exc:
                raise _row_error(spec, row.method, row.sweep, trial,
                                 exc) from exc
        raise
    share = (time.perf_counter() - t0) * 1e3 / len(batch)
    return [ResultRow(spec.study, spec.graph, spec.signal, row.method,
                      row.sweep, trial, value, row.wall_ms + share, row.seed)
            for row, value in zip(batch, values)]


def _rmse_trial_rows(spec: ExperimentSpec, trial: int, use_blue: bool,
                     spare_cpu: bool):
    """One context per graph size, built when the size changes, so a
    trial holds one graph at a time.

    A BLUE row runs observe -> blue_reconstruct -> rmse on its own.  A
    loaded row, every other one, only selects, draws its samples and
    forms its loaded system (`_TrialContext.loaded_system`);
    `_finish_batch` solves and scores the context's loaded rows together
    before the next context is built, and at the end, and solves a
    failed batch again one row at a time.  Each value is the per-row
    path's bit for bit, and so is each failure: a failing row first
    finishes the rows before it, so the first failure in (sweep, method)
    order raises.  A loaded row's wall_ms is its own selection, sampling
    and Gram time plus an equal share of its batch's.  `spare_cpu` goes
    to each `_TrialContext` (see `run_experiment`).
    """
    sweeps = STUDIES[spec.study].sweeps
    rows = []
    batch = []
    ctx = None
    for sweep_value in spec.sweep:
        n = int(sweep_value) if sweeps == "size" else spec.n
        if ctx is None or ctx.n != n:
            rows += _finish_batch(spec, trial, ctx, batch)
            batch = []
            ctx = None  # drop the last size's context before the next is built
            ctx = _TrialContext(spec, n, trial, spare_cpu)
        budget = int(sweep_value) if sweeps == "budget" else ctx.K
        sigma2 = snr_to_sigma2(sweep_value) if sweeps == "snr" else spec.sigma2
        seed = _trial_seed(spec, trial, sweep_value)
        for method in spec.methods:
            t0 = time.perf_counter()
            try:
                indices = ctx.select(method, budget)
                noise_seed = child_seed(seed, "noise", method)
                blue = use_blue and METHODS[method].blue and len(indices) >= ctx.K
                if blue:
                    obs = observe(ctx.signal, indices, sigma2,
                                  seed=noise_seed)
                    value = rmse(blue_reconstruct(obs, ctx.basis,
                                                  ctx.K).values,
                                 ctx.signal.values)
                    if not math.isfinite(value):
                        raise ValueError("RMSE is not finite")
                else:
                    system = ctx.loaded_system(method, indices, sigma2,
                                               noise_seed)
            except Exception as exc:
                # an earlier row's failure, found only by the batch,
                # raises first
                _finish_batch(spec, trial, ctx, batch)
                raise _row_error(spec, method, sweep_value, trial,
                                 exc) from exc
            wall_ms = (time.perf_counter() - t0) * 1e3
            if blue:
                rows.append(ResultRow(spec.study, spec.graph, spec.signal,
                                      method, sweep_value, trial, value,
                                      wall_ms, seed))
            else:
                batch.append(_LoadedRow(method, sweep_value, seed, wall_ms,
                                        *system))
    rows += _finish_batch(spec, trial, ctx, batch)
    return rows


def _gap_trial_rows(spec: ExperimentSpec, trial: int, _blue, _spare_cpu):
    """Objective values of the max-diag and log-det criteria along greedy paths."""
    ctx = _TrialContext(spec, spec.n, trial)
    m_max = max(spec.sweep)
    t0 = time.perf_counter()
    agod_set = ctx.select("agod", m_max)
    dopt_set = ctx.select("dopt", m_max)
    wall_ms = (time.perf_counter() - t0) * 1e3 / (3 * len(spec.sweep))
    values = {}
    for m in spec.sweep:
        prefix = agod_set[:m]
        gg = objective_agod(prefix, ctx.basis, ctx.K, ctx.mu)
        gd = objective_dopt(prefix, ctx.basis, ctx.K, ctx.mu)
        dd = objective_dopt(dopt_set[:m], ctx.basis, ctx.K, ctx.mu)
        # max diag dominates the geometric mean of the eigenvalues
        if math.log(gg) < gd - 1e-9:
            raise RuntimeError(f"log max-diag fell below normalized log-det "
                               f"at M={m} (trial {trial})")
        values[m] = {"G-G": gg, "G-D": gd, "D-D": dd}
    for curve in ("G-G", "D-D"):
        series = [values[m][curve] for m in sorted(spec.sweep)]
        if any(b > a + 1e-9 for a, b in zip(series, series[1:])):
            raise RuntimeError(f"{curve} objective trace increased with the "
                               f"budget (trial {trial})")
    rows = []
    for curve in spec.methods:
        for m in spec.sweep:
            rows.append(ResultRow(spec.study, spec.graph, spec.signal, curve,
                                  m, trial, values[m][curve], wall_ms,
                                  _trial_seed(spec, trial, m)))
    return rows


def _subopt_trial(spec: ExperimentSpec, trial: int, methods,
                  spare_cpu: bool = False):
    """Relative suboptimality of each method on an exhaustively solved instance.

    The reference objective is the exact-filter max-diag criterion; every
    method's set is scored against the same exhaustive optimum.  Yields
    (method, M, SuboptimalityReport, wall_ms) for each budget M in
    ascending order and each method.
    """
    ctx = _TrialContext(spec, spec.n, trial, spare_cpu)
    T = exact_lowpass(ctx.basis, ctx.K)

    # each method's relative_suboptimality enumerates the same subsets
    @functools.cache
    def g(indices):
        return objective_fagod(indices, T, ctx.mu)

    selections = {method: ctx.select(method, max(spec.sweep))
                  for method in methods}
    for m in sorted(spec.sweep):
        for method in methods:
            t0 = time.perf_counter()
            report = relative_suboptimality(g, selections[method][:m],
                                            spec.n, m)
            yield method, m, report, (time.perf_counter() - t0) * 1e3


def _subopt_trial_rows(spec: ExperimentSpec, trial: int, _blue, spare_cpu):
    return [ResultRow(spec.study, spec.graph, spec.signal, method, m, trial,
                      report.r, wall_ms, _trial_seed(spec, trial, m))
            for method, m, report, wall_ms in _subopt_trial(
                spec, trial, spec.methods, spare_cpu)]


# ---------------------------------------------------------------------------
# the spec's methods and studies, each declared once

@dataclass(frozen=True)
class _Method:
    # (ctx, M) -> the Selection of M nodes in a trial; it calls its selector
    # by this module's name, which perfbench's tracer and the tests wrap
    select: object
    prefix: bool = True   # its picks at M lead those at any larger M (one pass)
    givens: bool = False  # selects, and reconstructs, on the Givens filter
    blue: bool = True     # under --blue its rows from K samples on take the BLUE


def _random_pick(mode: str, ctx, M: int):
    seed = child_seed(f"{ctx.spec.base_seed}|{ctx.spec.study}", "select",
                      f"rand-{mode}", ctx.n, ctx.trial)
    return random_select(mode, ctx.basis, ctx.K, M, seed)


METHODS = {
    "agod": _Method(lambda c, M: greedy_select("agod", M, basis=c.basis,
                                               K=c.K, mu=c.mu)),
    "fagod": _Method(lambda c, M: greedy_select("fagod", M, filt=c.filter,
                                                mu=c.mu),
                     givens=True, blue=False),
    # fagod on V_K, the exact filter's factor; its filter estimate is the
    # loaded spectral one, never the BLUE
    "fagod-exact": _Method(lambda c, M: greedy_select(
        "fagod", M, basis=c.basis, K=c.K, mu=c.mu), blue=False),
    "god": _Method(lambda c, M: greedy_select("god", M, basis=c.basis,
                                              K=c.K)),
    "dopt": _Method(lambda c, M: greedy_doptimal(c.basis, c.K, c.mu, M)),
    "aopt": _Method(lambda c, M: greedy_aoptimal(c.basis, c.K, c.mu, M)),
    "eopt": _Method(lambda c, M: greedy_eoptimal(c.basis, c.K, M)),
    # numpy's choice without replacement draws a different stream for each M
    "rand-uniform": _Method(functools.partial(_random_pick, "uniform"),
                            prefix=False),
    # draw t reads only the t-th uniform of its stream and the picks before it
    "rand-leverage": _Method(functools.partial(_random_pick, "leverage")),
}


@dataclass(frozen=True)
class _Study:
    sweeps: str     # a sweep value is a "budget", "snr" (dB), "size" (n) or "mu"
    defaults: dict  # of the spec keys without a default in ExperimentSpec
    # (spec, trial, use_blue, spare_cpu) -> a trial's ResultRows; None for a
    # study that `gsample run` does not run
    rows: object = None
    fixed_methods: bool = False
    swept: tuple = (None, None)  # the key the sweep sets, and why a spec may not


_RMSE_DEFAULTS = dict(n=400, trials=150, methods=("fagod", "rand-uniform"))
STUDIES = {
    "rmse_vs_size": _Study("budget", dict(
        _RMSE_DEFAULTS, K="model", sweep=(5, 10, 15, 20, 25, 30)),
        _rmse_trial_rows),
    "rmse_vs_snr": _Study("snr", dict(
        _RMSE_DEFAULTS, K="model", sweep=(0.0, 5.0, 10.0, 15.0, 20.0)),
        _rmse_trial_rows,
        swept=("sigma2", "rmse_vs_snr derives sigma2 from the swept SNR")),
    "rmse_vs_n": _Study("size", dict(
        _RMSE_DEFAULTS, K="auto", sweep=(100, 200, 300, 400)),
        _rmse_trial_rows, swept=("n", "n is swept in rmse_vs_n")),
    "objective_gap": _Study("budget", dict(
        n=120, K=10, trials=1, sweep=tuple(range(5, 41, 5)),
        methods=GAP_CURVES), _gap_trial_rows, fixed_methods=True),
    "suboptimality": _Study("budget", dict(
        n=10, K=2, trials=50, sweep=(2, 3, 4, 5, 6),
        methods=("fagod-exact", "rand-uniform")), _subopt_trial_rows),
    "alpha": _Study("mu", dict(
        n=6, K=2, trials=50, sweep=(0.01, 0.1, 1.0), methods=("agod",)),
        fixed_methods=True, swept=("mu", "mu is swept in the alpha study")),
}


def _share_rows(spec: ExperimentSpec, trials, use_blue: bool,
                spare_cpu: bool = False):
    """The rows of `trials`, run in order, and the failure that ended the
    share as (trial, exception), or None.  `spare_cpu`: see
    `_TrialContext`."""
    rows = []
    for trial in trials:
        try:
            rows += STUDIES[spec.study].rows(spec, trial, use_blue, spare_cpu)
        except Exception as exc:
            return rows, (trial, exc)
    return rows, None


# Trials run in forked workers on Linux only: each worker is tied with prctl
# to the life of the thread that forked it.  The OpenBLAS thread counts are
# set there too: the libraries are found in /proc/self/maps.
_FORKS = sys.platform.startswith("linux")
_LIBC = ctypes.CDLL(None, use_errno=True) if _FORKS else None
if _LIBC:
    _LIBC.prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
_PR_SET_PDEATHSIG = 1
# get and set of the thread count in the OpenBLAS builds: plain, numpy's
# and scipy's wheels
_BLAS_THREAD_FUNCTIONS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"))
# (pid, task pipe's write end, result pipe's read end) of each persistent
# worker that this process forked
_workers = []


@functools.cache
def _blas_threads() -> tuple:
    """(getter, setter) of the thread count of every loaded OpenBLAS,
    looked up once per process; a worker forked later inherits them."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps
                        if "openblas" in line})
    found = []
    for path in paths:
        library = ctypes.CDLL(path)
        for get, set_ in _BLAS_THREAD_FUNCTIONS:
            if hasattr(library, get):
                getter, setter = getattr(library, get), getattr(library, set_)
                getter.argtypes, getter.restype = (), ctypes.c_int
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                found.append((getter, setter))
                break
    return tuple(found)


@contextlib.contextmanager
def _one_blas_thread():
    """Every loaded OpenBLAS at one thread, restored on exit."""
    libraries = _blas_threads()
    before = [getter() for getter, _ in libraries]
    for _, setter in libraries:
        setter(1)
    try:
        yield
    finally:
        for (_, setter), count in zip(libraries, before):
            setter(count)


def _serve(parent: int, tasks: int, results: int) -> None:
    """A worker's life; it never returns.  The worker dies with the thread
    that forked it and leaves Ctrl-C to its parent.  It answers each
    `(spec, trials, use_blue)` task read from `tasks` with that share's
    `_share_rows`, written to `results`, and exits at the end of `tasks`."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        if _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
            raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
        if os.getppid() != parent:  # the parent died before prctl took effect
            os._exit(1)
        with open(tasks, "rb") as source, open(results, "wb") as sink:
            while True:
                try:
                    task = pickle.load(source)
                except EOFError:
                    break
                pickle.dump(_share_rows(*task), sink)
                sink.flush()
    except BaseException:
        sys.excepthook(*sys.exc_info())
        os._exit(1)
    os._exit(0)


def _start_workers(count: int) -> None:
    """Fork workers until `count` run.  A worker keeps the module state of
    the moment it was forked.  It is forked, not spawned: a spawned worker
    would import numpy, scipy's LAPACK extension and gsample afresh, about
    0.2 s that every new `gsample run` would pay.  It persists: forked
    and reaped in every call, it slowed a 4-trial `desk` op by 5-16 ms."""
    while len(_workers) < count:
        task_read, task_write = os.pipe()
        result_read, result_write = os.pipe()
        parent = os.getpid()
        try:
            pid = os.fork()
        except OSError:
            for fd in (task_read, task_write, result_read, result_write):
                os.close(fd)
            raise
        if pid == 0:
            os.close(task_write)
            os.close(result_read)
            _serve(parent, task_read, result_write)
        os.close(task_read)
        os.close(result_write)
        _workers.append((pid, task_write, result_read))


@atexit.register
def _stop_workers(kill: bool = False) -> None:
    """Close the task pipes, at whose end each idle worker exits, or kill
    the workers; then reap them."""
    pids = [pid for pid, _, _ in _workers]
    for pid in pids if kill else ():
        os.kill(pid, signal.SIGKILL)
    _close_pipes()
    for pid in pids:
        os.waitpid(pid, 0)


def _close_pipes() -> None:
    """Close this process's ends of its workers' pipes and forget the
    workers.  A forked child does so at once, for its parent's workers: a
    copy of a task pipe's write end would keep its worker from ever
    reading the end of its tasks."""
    for _, tasks, results in _workers:
        os.close(tasks)
        os.close(results)
    _workers.clear()


if _FORKS:
    os.register_at_fork(after_in_child=_close_pipes)


def run_experiment(spec: ExperimentSpec, threads: int | None = None,
                   use_blue: bool = False) -> ExperimentResult:
    """Execute a spec and return deterministic result rows.

    `threads` caps the number of processes the trials run in, one per
    usable CPU at most and by default.  With W = min(trials, threads,
    usable CPUs), the calling process runs the trials t = 0 (mod W)
    itself, and the share t = w (mod W) of each w > 0 goes to one of W - 1
    persistent forked workers, as one task on its pipe; the rows of the
    workers' shares are loaded after the caller's own share.  Every
    trial runs in process, and no process starts, at W = 1, off Linux,
    and in a call off the main thread, since a worker dies with the
    thread that forked it.  A child process, forked or spawned, forks
    workers of its own.
    On Linux every trial runs at one OpenBLAS thread, in a
    worker or in the caller, which restores its own count afterwards:
    from n = 150 or so the eigensolver's last bits depend on that count,
    so rows would otherwise depend on where the trial ran.
    A run at W = 1 whose min(threads, usable CPUs) is 2 or more has a
    CPU to spare: a trial that selects with fagod runs its Jacobi sweep
    on a second thread beside the `eigendecompose` of the basis its
    signal is drawn from (`_truth_and_filter`).  A failed trial raises what it
    raises at threads = 1.  A worker that dies raises a RuntimeError that
    names it; every worker is then killed, and the next call forks afresh.
    Rows are sorted by (method, sweep, trial) in spec order before
    returning, so scheduling never affects the output.
    """
    study = STUDIES[spec.study]
    if study.rows is None:
        raise SpecError(f"study {spec.study!r} runs through "
                        "`gsample oracle alpha`, not `gsample run`")
    # a spec built directly has passed no parser
    if spec.trials < 1:
        raise SpecError("trials must be at least 1")
    for key in ("methods", "sweep"):
        if not getattr(spec, key):
            raise SpecError(f"{key} must not be empty")
    cpus = len(os.sched_getaffinity(0)) if _FORKS else 1
    if threads is None:
        threads = cpus
    if isinstance(threads, bool) or not isinstance(threads, numbers.Integral):
        raise ValueError(f"thread count must be an integer, got {threads!r}")
    if threads < 1:
        raise ValueError("thread count must be at least 1")
    width = min(spec.trials, threads, cpus) \
        if threading.current_thread() is threading.main_thread() else 1
    shares = [range(w, spec.trials, width) for w in range(width)]
    try:
        # workers forked here inherit the one BLAS thread
        with _one_blas_thread() if _FORKS else contextlib.nullcontext():
            _start_workers(width - 1)
            workers = _workers[:width - 1]
            for (pid, tasks, _), share in zip(workers, shares[1:]):
                with open(tasks, "wb", closefd=False) as sink:
                    pickle.dump((spec, share, use_blue), sink)
            outcomes = [_share_rows(spec, shares[0], use_blue,
                                    width == 1 and min(threads, cpus) >= 2)]
        for pid, _, results in workers:
            with open(results, "rb", closefd=False) as source:
                outcomes.append(pickle.load(source))
    except BaseException as exc:
        # a reply left in a pipe would answer the next call
        _stop_workers(kill=True)
        if isinstance(exc, (BrokenPipeError, EOFError,
                            pickle.UnpicklingError)):
            raise RuntimeError(f"trial worker {pid} died") from exc
        raise
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    rows = [row for share_rows, _ in outcomes for row in share_rows]
    method_order = {m: i for i, m in enumerate(spec.methods)}
    sweep_order = {v: i for i, v in enumerate(spec.sweep)}
    rows.sort(key=lambda r: (method_order[r.method], sweep_order[r.sweep], r.trial))
    expected = len(method_order) * len(spec.sweep) * spec.trials
    if len(rows) != expected:
        raise RuntimeError(f"row count {len(rows)} != expected {expected}")
    return ExperimentResult(tuple(rows))


def run_alpha_certificate(spec: ExperimentSpec):
    """Empirical alpha for the loaded max-diag objective, per (instance, mu).

    Returns [(instance_label, AlphaReport)] ordered by (trial, mu).
    """
    if spec.study != "alpha":
        raise SpecError("run_alpha_certificate needs study = alpha")
    reports = []
    for trial in range(spec.trials):
        ctx = _TrialContext(spec, spec.n, trial)
        for mu in spec.sweep:
            def g(indices, _mu=mu):
                return objective_agod(indices, ctx.basis, ctx.K, _mu)
            report = empirical_alpha(g, spec.n, mu)
            reports.append((f"{spec.graph}-n{spec.n}-t{trial}", report))
    return reports


def run_subopt_reports(spec: ExperimentSpec):
    """Exact SuboptimalityReports for the first configured method.

    Returns [(instance_label, M, SuboptimalityReport)] for the oracle
    subcommand's CSV.
    """
    if spec.study != "suboptimality":
        raise SpecError("run_subopt_reports needs study = suboptimality")
    return [(f"{spec.graph}-n{spec.n}-t{trial}", m, report)
            for trial in range(spec.trials)
            for _, m, report, _ in _subopt_trial(spec, trial, spec.methods[:1])]


def write_result_csv(result: ExperimentResult, path) -> None:
    """Write rows under the fixed header; wall_ms is the only jittery column."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in result.rows:
            fh.write(",".join([r.study, r.graph, r.signal, r.method,
                               str(r.sweep), str(r.trial), repr(float(r.value)),
                               f"{r.wall_ms:.3f}", str(r.seed)]) + "\n")
