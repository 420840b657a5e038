"""Per-layer metrics of one traced op, and of the memory pass.

Times and counts are per trial: an op's total divided by its trial count.
The run reports the median over traced ops.  Quality figures (filter error,
residual off-diagonal energy) and the `eigsh` reference are computed after
the op's root span has closed, so they never count towards op time.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import eigsh

from spans import ROOT
from summary import self_times, step_yield

MIB = 1024.0 * 1024.0

# Shift for the shift-invert `eigsh` reference: the Laplacian is singular,
# so factor L - sigma I just below its zero eigenvalue.
EIGSH_SIGMA = -1e-3

GREEDY = ("selection.fagod", "selection.agod", "selection.dopt",
          "selection.aopt")

# metric: wrapped functions it needs (units are in BENCHMARK.json).  A metric
# whose function is missing (renamed or removed by a refactor) is reported as
# absent.
PER_LAYER = {
    "graphs.gen_ms": ("gen_sensor",),
    "graphs.laplacian_ms": ("build_laplacian",),
    "graphs.peak_mb": ("gen_sensor",),
    "graphs.connect_draws": ("gen_sensor",),
    "graphs.laplacian_calls": ("build_laplacian",),
    "spectral.eigh_ms": ("eigendecompose",),
    "spectral.eigh_calls": ("eigendecompose",),
    "spectral.sample_ms": ("gen_signal", "observe"),
    "spectral.eigsh_ref_ms": ("build_laplacian", "eigendecompose"),
    "filters.jacobi_ms": ("greedy_jacobi",),
    "filters.rotations": ("greedy_jacobi",),
    "filters.rotation_us": ("greedy_jacobi",),
    "filters.synth_ms": ("lowpass_from_givens",),
    "filters.peak_mb": ("approximate_lowpass",),
    "filters.filter_mb": ("approximate_lowpass",),
    "filters.filter_err": ("approximate_lowpass", "build_laplacian",
                           "eigendecompose"),
    "filters.offdiag_residual": ("approximate_lowpass",),
    "selection.fagod_ms": ("greedy_select",),
    "selection.agod_ms": ("greedy_select",),
    "selection.dopt_ms": ("greedy_doptimal",),
    "selection.aopt_ms": ("greedy_aoptimal",),
    "selection.random_ms": ("random_select",),
    "selection.calls": ("greedy_select", "greedy_doptimal",
                        "greedy_aoptimal", "random_select"),
    "selection.steps": ("greedy_select", "greedy_doptimal",
                        "greedy_aoptimal", "random_select"),
    "selection.step_yield": ("greedy_select", "greedy_doptimal",
                             "greedy_aoptimal"),
    "reconstruction.filter_ms": ("filter_reconstruct",),
    "reconstruction.spectral_ms": ("biased_reconstruct", "blue_reconstruct"),
    "reconstruction.calls": ("filter_reconstruct", "biased_reconstruct",
                             "blue_reconstruct"),
    "bench.self_ms": (),
    "path.eigfree_ms": ("greedy_jacobi", "lowpass_from_givens",
                        "greedy_select"),
    "path.spectral_ms": ("eigendecompose", "greedy_select"),
    "trace.accounted_frac": (),
    "trace.op_ms_p50": (),
    "trace.overhead_frac": (),
}

# metric: span names whose self times it sums
SELF_TIME = {
    "graphs.gen_ms": ("graphs.gen",),
    "graphs.laplacian_ms": ("graphs.laplacian",),
    "spectral.eigh_ms": ("spectral.eigh",),
    "spectral.sample_ms": ("spectral.sample",),
    "filters.jacobi_ms": ("filters.jacobi",),
    "filters.synth_ms": ("filters.synth",),
    "selection.fagod_ms": ("selection.fagod",),
    "selection.agod_ms": ("selection.agod",),
    "selection.dopt_ms": ("selection.dopt",),
    "selection.aopt_ms": ("selection.aopt",),
    "selection.random_ms": ("selection.random",),
    "reconstruction.filter_ms": ("reconstruction.filter",),
    "reconstruction.spectral_ms": ("reconstruction.spectral",),
    "bench.self_ms": ("bench.op",),
}

# metric: span names whose calls it counts
CALLS = {
    "graphs.laplacian_calls": ("graphs.laplacian",),
    "spectral.eigh_calls": ("spectral.eigh",),
    "selection.calls": GREEDY + ("selection.random",),
    "reconstruction.calls": ("reconstruction.filter",
                             "reconstruction.spectral"),
}


def absent_metrics(missing):
    missing = set(missing)
    return sorted(m for m, needs in PER_LAYER.items()
                  if missing.intersection(needs))


def _argument(call, position, name):
    return call.args[position] if len(call.args) > position \
        else call.kwargs[name]


def _basis_group(call):
    """Identity of the trial a selection call belongs to (its basis/filter)."""
    for arg in list(call.args) + list(call.kwargs.values()):
        if hasattr(arg, "eigenvectors") or hasattr(arg, "givens"):
            return id(arg)
    return None


def self_time_by_name(tracer, op):
    """{span name: (self seconds, calls)} for one op, root included."""
    indexed = tracer.op_spans(op)
    spans = [s for _, s in indexed]
    local = {index: k for k, (index, _) in enumerate(indexed)}
    rebased = [type(s)(s.name, s.start, s.end, local.get(s.parent, -1), s.op)
               for s in spans]
    totals = {}
    for span, own in zip(rebased, self_times(rebased)):
        seconds, calls = totals.get(span.name, (0.0, 0))
        totals[span.name] = (seconds + own, calls + 1)
    return totals


def op_values(tracer, op, trials, K):
    """Per-trial layer values of one traced op.

    Returns (values, problems, unreadable).  Self times and call counts
    need only span names.  The other figures read the program's return
    values; a figure whose inputs changed shape in a refactor is listed in
    `unreadable` and its metrics stay absent, while the run goes on.  An op
    with no layer span under its root is all unreadable.

    `trace.accounted_frac` is the self time of the layer spans, the root's
    own excluded, over op time.  It falls when a layer's work goes untraced
    and lands in `bench.self_ms`; with trials on several threads it can
    exceed 1.
    """
    (_, root), *layer_spans = tracer.op_spans(op)
    if not layer_spans:
        # the wrappers never ran, e.g. the trials ran in other processes
        return {}, [], ["no layer spans recorded under the op's root"]
    by_name = self_time_by_name(tracer, op)
    values = {}
    for metric, names in SELF_TIME.items():
        values[metric] = _seconds(by_name, *names) * 1e3 / trials
    for metric, names in CALLS.items():
        values[metric] = sum(by_name.get(n, (0.0, 0))[1] for n in names) / trials
    values["trace.accounted_frac"] = sum(
        seconds for name, (seconds, _) in by_name.items() if name != ROOT) \
        / (root.end - root.start)
    problems, unreadable = [], []
    for figure in (_draws, _rotations, _selections, _filter_quality,
                   _eigsh_reference):
        try:
            found, more = figure(tracer.calls, tracer.spans, by_name, trials, K)
        except (AttributeError, KeyError, IndexError, TypeError) as exc:
            unreadable.append(f"{figure.__name__[1:]}: {type(exc).__name__}: {exc}")
            continue
        values.update(found)
        problems += more
    return values, problems, unreadable


def _seconds(by_name, *names):
    return sum(by_name.get(n, (0.0, 0))[0] for n in names)


def _draws(calls, spans, by_name, trials, K):
    draws = [c.result.meta["seed"] - _argument(c, 2, "seed") + 1
             for c in calls if c.target == "gen_sensor"]
    return {"graphs.connect_draws": float(np.mean(draws)) if draws else 0.0}, []


def _rotations(calls, spans, by_name, trials, K):
    rotations = sum(c.result[0].count for c in calls
                    if c.target == "greedy_jacobi")
    jacobi_s = _seconds(by_name, "filters.jacobi")
    return {"filters.rotations": rotations / trials,
            "filters.rotation_us":
                jacobi_s * 1e6 / rotations if rotations else 0.0}, []


def _selections(calls, spans, by_name, trials, K):
    selections = [(spans[c.span].name, _basis_group(c), len(c.result.indices),
                   spans[c.span].end - spans[c.span].start)
                  for c in calls if spans[c.span].name.startswith("selection.")]
    greedy = [((name, group), steps) for name, group, steps, _ in selections
              if name in GREEDY]

    def at_largest_budget(method):
        largest = {}
        for name, group, steps, seconds in selections:
            if name == method and steps >= largest.get(group, (0, 0.0))[0]:
                largest[group] = (steps, seconds)
        return sum(s for _, s in largest.values()), bool(largest)

    fagod_s, fagod_ran = at_largest_budget("selection.fagod")
    agod_s, agod_ran = at_largest_budget("selection.agod")
    eigfree_s = _seconds(by_name, "filters.lowpass", "filters.jacobi",
                         "filters.synth")
    eigh_s = _seconds(by_name, "spectral.eigh")
    return {
        "selection.steps": sum(s[2] for s in selections) / trials,
        "selection.step_yield": step_yield(greedy) if greedy else 0.0,
        "path.eigfree_ms":
            (eigfree_s + fagod_s) * 1e3 / trials if fagod_ran else 0.0,
        "path.spectral_ms":
            (eigh_s + agod_s) * 1e3 / trials if agod_ran else 0.0,
    }, []


def _exact_bases(calls):
    """{graph id: eigendecompose call}, linked through build_laplacian."""
    graph_of = {id(c.result): id(c.args[0]) for c in calls
                if c.target == "build_laplacian"}
    return graph_of, {graph_of.get(id(c.args[0])): c for c in calls
                      if c.target == "eigendecompose"}


def _filter_quality(calls, spans, by_name, trials, K):
    graph_of, basis_of = _exact_bases(calls)
    errors, residuals, filter_mb = [], [], 0.0
    for c in calls:
        if c.target != "approximate_lowpass":
            continue
        lap, filt = c.args[0].matrix, c.result
        filter_mb = max(filter_mb, filt.filter.nbytes / MIB)
        # rotations preserve the Frobenius norm, so the off-diagonal energy
        # left is ||L||^2 minus the squared approximate eigenvalues
        total = float((lap ** 2).sum())
        offdiag = total - float((np.diag(lap) ** 2).sum())
        residuals.append((total - float((filt.approx_eigs ** 2).sum())) / offdiag)
        exact = basis_of.get(graph_of.get(id(c.args[0])))
        if exact is not None:
            vk = exact.result.low_frequency(filt.bandwidth)
            proj = vk @ vk.T
            errors.append(float(np.linalg.norm(filt.filter - proj)
                                / np.linalg.norm(proj)))
    return {"filters.filter_mb": filter_mb,
            "filters.filter_err": float(np.mean(errors)) if errors else 0.0,
            "filters.offdiag_residual":
                float(np.mean(residuals)) if residuals else 0.0}, []


def _eigsh_reference(calls, spans, by_name, trials, K):
    """Shift-invert eigsh for K eigenpairs of each trial's Laplacian.

    Off the program's path: the competitor the eigen-free path has to beat.
    Its eigenvalues must match the program's dense eigh.
    """
    _, basis_of = _exact_bases(calls)
    seconds, problems = 0.0, []
    for c in basis_of.values():
        lap = csr_matrix(c.args[0].matrix)
        v0 = np.random.default_rng(0).standard_normal(lap.shape[0])
        start = time.perf_counter()
        ref = eigsh(lap, k=K, sigma=EIGSH_SIGMA, which="LM", v0=v0,
                    return_eigenvectors=False)
        seconds += time.perf_counter() - start
        exact = c.result.eigenvalues[:K]
        gap = float(np.max(np.abs(np.sort(ref) - exact)))
        if gap > 1e-8 * max(1.0, float(exact[-1])):
            problems.append(f"eigsh reference disagrees with eigh by {gap:.3g}")
    return {"spectral.eigsh_ref_ms": seconds * 1e3 / trials}, problems


def memory_values(tracer):
    """Largest op peak and layer peaks (MiB) from a memory pass.

    A layer the op did not call peaks at 0; when no layer span was recorded
    at all (the wrappers never ran) only the op peak is returned.
    """
    def peak(*names):
        return max((s.peak for s in tracer.spans if s.name in names),
                   default=0) / MIB

    values = {"peak_alloc_mb": peak(ROOT)}
    if any(s.name != ROOT for s in tracer.spans):
        values["graphs.peak_mb"] = peak("graphs.gen")
        values["filters.peak_mb"] = peak("filters.lowpass") \
            or peak("filters.jacobi", "filters.synth")
    return values
