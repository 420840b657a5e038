import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import gsample.bench as bench
from conftest import graph_from_adjacency
from gsample import (SpecError, approximate_lowpass, build_laplacian,
                     eigendecompose, exact_lowpass, greedy_aoptimal,
                     greedy_doptimal, greedy_eoptimal, greedy_select, observe,
                     parse_spec_file, parse_spec_text, rmse, run_experiment,
                     snr_to_sigma2, write_result_csv)
from gsample.bench import (resolve_k, run_alpha_certificate,
                           run_subopt_reports)
from gsample.cli import main
from gsample.oracle import dense_adjacency, theorem_bounds
from gsample.reconstruction import (biased_reconstruct, blue_reconstruct,
                                    filter_reconstruct)
from gsample.rng import child_seed
from gsample import load_graph

SPEC_DIR = Path(__file__).resolve().parents[1] / "specs"

SMALL_RMSE_SPEC = """
# desk-size smoke spec
study = rmse_vs_size
graph = G1
signal = GS1
n = 24
K = 4
methods = fagod, agod, rand-uniform
sweep = 4, 8
trials = 3
base_seed = 7
"""


def _strip_wall(csv_text):
    lines = csv_text.splitlines()
    out = []
    for line in lines:
        cols = line.split(",")
        del cols[7]  # wall_ms
        out.append(",".join(cols))
    return "\n".join(out)


# ---------------------------------------------------------------------------
# spec parsing

def test_parse_small_spec():
    spec = parse_spec_text(SMALL_RMSE_SPEC)
    assert spec.study == "rmse_vs_size"
    assert spec.methods == ("fagod", "agod", "rand-uniform")
    assert spec.sweep == (4, 8)
    assert spec.K == 4 and spec.n == 24 and spec.trials == 3


def test_parse_defaults():
    spec = parse_spec_text("study = rmse_vs_size")
    assert spec.n == 400 and spec.trials == 150
    assert resolve_k(spec, spec.n) == 10
    assert spec.mu == pytest.approx(1 / 99)
    assert (spec.graph, spec.signal, spec.J, spec.base_seed, spec.sigma2,
            spec.knn, spec.p, spec.out) == (
        "G1", "GS1", "auto", 0, 5e-3, 6, 0.05, "rmse_vs_size.csv")
    g3 = parse_spec_text("study = rmse_vs_size\nsignal = GS3")
    assert resolve_k(g3, g3.n) == 40


@pytest.mark.parametrize("text,match", [
    ("study = rmse_vs_sizee", ":1: unknown study"),
    ("study = rmse_vs_size\nbogus = 1", ":2: unknown key"),
    ("study = rmse_vs_size\nn = 10\nn = 12", ":3: duplicate key"),
    ("n = 10", "missing required key 'study'"),
    ("study = rmse_vs_size\ntrials = 0", ":2: trials"),
    ("study = rmse_vs_size\nsweep = 4, x", ":2: sweep must be int"),
    ("study = rmse_vs_size\nsweep = 4, 6, 4", ":2: duplicate sweep value"),
    ("study = rmse_vs_snr\nsweep = 5, 5.0", ":2: duplicate sweep value"),
    ("study = rmse_vs_size\nmethods = warp", ":2: unknown method"),
    ("study = objective_gap\nmethods = agod", ":2: methods are fixed"),
    ("study = rmse_vs_n\nn = 100", "n is swept"),
    ("study = rmse_vs_snr\nsigma2 = 0.1", "derives sigma2"),
    ("study = rmse_vs_size\nn = 12\nK = 20", "exceeds n"),
    ("study = rmse_vs_size\nn = 12\nsweep = 20", "out of range"),
    ("study = alpha\nn = 12", "n <= 8"),
    ("study = rmse_vs_size\nnonsense line", "expected 'key = value'"),
    # each of these passes no run: the parser rejects it up front
    ("study = rmse_vs_size\nknn = 0", ":2: knn must be at least 1"),
    ("study = rmse_vs_size\nn = 30\nknn = -3", ":3: knn must be at least 1"),
    ("study = rmse_vs_size\ngraph = G2\np = 0", ":3: p must be in"),
    ("study = suboptimality\ngraph = G3\nn = 6", ":3: community graphs"),
    ("study = objective_gap\ngraph = G3\nn = 7\nK = 2\nsweep = 3",
     ":3: community graphs"),
    ("study = rmse_vs_size\nsignal = GS3\nn = 30\nK = 4\nsweep = 5",
     ":3: signal GS3 has bandwidth 40"),
    ("study = rmse_vs_size\nn = 5\nK = 2\nsweep = 3",
     ":2: signal GS1 has bandwidth 10"),
    ("study = suboptimality\ngraph = G2\nn = 10", ":3: G\\(n=10"),
    ("study = rmse_vs_size\ngraph = G2\nn = 60", ":3: G\\(n=60"),
    ("study = rmse_vs_n\nsweep = 1, 40", ":2: graph size 1 is below 2"),
    # every spec number is finite, and a study's sweep owns the key it sets
    ("study = rmse_vs_size\nmu = inf", ":2: mu must be finite"),
    ("study = rmse_vs_size\nsigma2 = inf", ":2: sigma2 must be finite"),
    ("study = rmse_vs_snr\nsweep = nan, nan", ":2: sweep must be finite"),
    ("study = alpha\nsweep = nan", ":2: sweep must be finite"),
    ("study = alpha\nmu = 0.1", ":2: mu is swept in the alpha study"),
    # 10 ** 400 overflows in snr_to_sigma2, which `run` would call
    ("study = rmse_vs_snr\nn = 30\nK = 4\nmethods = agod\nsweep = -4000\n"
     "trials = 1", ":5: SNR -4000.0 dB gives a noise variance past"),
    ("study = rmse_vs_size\nn =", ":2: empty value for 'n'"),
    ("study = rmse_vs_size\ngraph = G4", ":2: unknown graph model 'G4'"),
    ("study = rmse_vs_size\nsignal = GS0", ":2: unknown signal model 'GS0'"),
    ("study = rmse_vs_size\nmethods = agod, fagod, agod",
     ":2: duplicate method"),
    ("study = suboptimality\nn = 30\nsweep = 15",
     ":2: exhaustive search needs C\\(n, M\\) <= 1000000"),
    ("study = alpha\nsweep = 0.1, 0",
     ":2: alpha study sweeps mu values > 0"),
    # a comma list drops empty items, and may not be empty
    ("study = rmse_vs_size\nsweep = ,", ":2: sweep must not be empty"),
    ("study = rmse_vs_size\nmethods = , ,", ":2: methods must not be empty"),
])
def test_parse_rejects_bad_specs(text, match):
    with pytest.raises(SpecError, match=match):
        parse_spec_text(text)


@pytest.mark.parametrize("text,key,value", [
    ("methods = fagod,", "methods", ("fagod",)),
    ("methods = , agod,, fagod", "methods", ("agod", "fagod")),
    ("sweep = 5,", "sweep", (5,)),
    ("sweep = , 5,, 10", "sweep", (5, 10)),
])
def test_comma_lists_drop_empty_items(text, key, value):
    assert getattr(parse_spec_text(f"study = rmse_vs_size\n{text}"),
                   key) == value


@pytest.mark.parametrize("path", sorted(SPEC_DIR.glob("*.spec")),
                         ids=lambda path: path.name)
def test_committed_spec_parses(path):
    assert parse_spec_file(path).study in bench.STUDIES


# ---------------------------------------------------------------------------
# runner

def test_single_row_run():
    spec = parse_spec_text(
        "study = rmse_vs_size\nn = 16\nK = 3\nmethods = agod\n"
        "sweep = 4\ntrials = 1")
    result = run_experiment(spec)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.method == "agod" and row.sweep == 4 and row.trial == 0
    assert row.value >= 0


def test_row_count_and_order():
    spec = parse_spec_text(SMALL_RMSE_SPEC)
    result = run_experiment(spec)
    assert len(result.rows) == 3 * 2 * 3
    keys = [(r.method, r.sweep, r.trial) for r in result.rows]
    methods = {m: i for i, m in enumerate(spec.methods)}
    assert keys == sorted(keys, key=lambda k: (methods[k[0]], k[1], k[2]))


def test_rerun_and_thread_invariance(tmp_path):
    # threads=None runs as many processes as there are usable CPUs; 3 and
    # 4 can exceed them, so several shares queue on one worker
    for text in (SMALL_RMSE_SPEC,
                 "study = rmse_vs_n\nmethods = fagod, rand-leverage\n"
                 "sweep = 22, 44\ntrials = 5\nbase_seed = 2\n",
                 "study = suboptimality\nn = 8\nK = 2\nsweep = 2, 3\n"
                 "trials = 5\nmethods = fagod-exact, rand-uniform\n"):
        spec = parse_spec_text(text)
        outputs = []
        for tag, threads in (("a", 1), ("b", 1), ("c", None), ("d", 2),
                             ("e", 3), ("f", 4)):
            path = tmp_path / f"{tag}.csv"
            write_result_csv(run_experiment(spec, threads=threads), path)
            outputs.append(_strip_wall(path.read_text()))
        assert outputs == [outputs[0]] * len(outputs), spec.study


def test_snr_study_budget_is_bandwidth():
    spec = parse_spec_text(
        "study = rmse_vs_snr\nn = 20\nK = 4\nmethods = agod\n"
        "sweep = 0, 20\ntrials = 2")
    result = run_experiment(spec)
    assert len(result.rows) == 4
    # higher SNR must not hurt on average in this tiny deterministic run
    low = np.mean([r.value for r in result.rows if r.sweep == 0.0])
    high = np.mean([r.value for r in result.rows if r.sweep == 20.0])
    assert high < low


def test_n_study_scales_bandwidth():
    spec = parse_spec_text(
        "study = rmse_vs_n\nmethods = agod\nsweep = 22, 44\ntrials = 1")
    assert resolve_k(spec, 22) == 1
    assert resolve_k(spec, 44) == 2
    result = run_experiment(spec)
    assert len(result.rows) == 2


def test_objective_gap_rows():
    spec = parse_spec_text(
        "study = objective_gap\nn = 24\nK = 4\nsweep = 5, 10\ntrials = 1")
    result = run_experiment(spec)
    assert len(result.rows) == 6  # 3 curves x 2 budgets
    curves = {r.method for r in result.rows}
    assert curves == {"G-G", "G-D", "D-D"}
    for curve in ("G-G", "D-D"):
        series = [r.value for r in result.rows if r.method == curve]
        assert series[1] <= series[0] + 1e-9


def test_every_method_runs_end_to_end():
    spec = parse_spec_text(
        "study = rmse_vs_size\nn = 20\nK = 3\n"
        "methods = agod, fagod, fagod-exact, god, dopt, aopt, eopt, "
        "rand-uniform, rand-leverage\n"
        "sweep = 5\ntrials = 1")
    result = run_experiment(spec)
    assert len(result.rows) == 9
    assert all(np.isfinite(r.value) and r.value >= 0 for r in result.rows)


def test_blue_flag_switches_estimator():
    spec = parse_spec_text(
        "study = rmse_vs_size\nn = 20\nK = 3\nmethods = agod, fagod\n"
        "sweep = 6\ntrials = 2\nbase_seed = 5")
    biased = run_experiment(spec, use_blue=False)
    blue = run_experiment(spec, use_blue=True)
    by_method = lambda res, m: [r.value for r in res.rows if r.method == m]  # noqa: E731
    # spectrum-based reconstruction changes, filter-based does not
    assert by_method(biased, "agod") != by_method(blue, "agod")
    assert by_method(biased, "fagod") == by_method(blue, "fagod")


PREFIX_SPEC = """
study = rmse_vs_size
graph = G1
signal = GS1
n = 24
K = 4
methods = agod, fagod, fagod-exact, god, dopt, aopt, eopt, rand-uniform, rand-leverage
sweep = 5, 3, 6
trials = 2
base_seed = 3
"""


def _per_row_estimate(ctx, method, obs, use_blue):
    """A row's estimate by the public per-row functions, the oracle of the
    runner's batched rows: the Givens filter's for fagod, the BLUE under
    --blue from K samples on (fagod-exact excepted), and otherwise the
    loaded estimate on V_K."""
    if method == "fagod":
        return filter_reconstruct(obs, ctx.filter, ctx.mu)
    if use_blue and method != "fagod-exact" \
            and len(obs.sample_indices) >= ctx.K:
        return blue_reconstruct(obs, ctx.basis, ctx.K)
    return biased_reconstruct(obs, ctx.basis, ctx.K, ctx.mu)


def test_rmse_vs_size_runs_each_greedy_method_once_per_trial(monkeypatch):
    spec = parse_spec_text(PREFIX_SPEC)
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            label = args[0] if name == "greedy_select" else name
            if label == "fagod" and "basis" in kwargs:
                label += "-exact"
            budget = args[1] if name == "greedy_select" else args[-1]
            if name == "random_select":  # (mode, basis, K, M, seed)
                label, budget = f"rand-{args[0]}", args[3]
            calls[(label, budget)] += 1
            return real(*args, **kwargs)
        return wrapper

    # the runner must look each selector up by its name when a row runs
    for name in ("greedy_select", "greedy_doptimal", "greedy_aoptimal",
                 "greedy_eoptimal", "random_select"):
        monkeypatch.setattr(bench, name, counted(name, getattr(bench, name)))
    # in process: workers forked before the patch would not count
    result = run_experiment(spec, threads=1)
    monkeypatch.undo()
    # one pass per prefix method and trial, at the largest budget, and one
    # uniform draw per budget and trial
    assert calls == Counter({
        **{(m, 6): spec.trials for m in (
            "agod", "fagod", "fagod-exact", "god", "greedy_doptimal",
            "greedy_aoptimal", "greedy_eoptimal", "rand-leverage")},
        **{("rand-uniform", M): spec.trials for M in spec.sweep}})

    def direct(ctx, method, M):
        if method in ("agod", "god"):
            sel = greedy_select(method, M, basis=ctx.basis, K=ctx.K, mu=ctx.mu)
        elif method == "fagod":
            sel = greedy_select("fagod", M, filt=ctx.filter, mu=ctx.mu)
        elif method == "fagod-exact":
            # the dense V_K V_K^T, which greedy_select factors itself
            sel = greedy_select("fagod", M, filt=exact_lowpass(ctx.basis, ctx.K),
                                mu=ctx.mu)
        elif method == "dopt":
            sel = greedy_doptimal(ctx.basis, ctx.K, ctx.mu, M)
        elif method == "aopt":
            sel = greedy_aoptimal(ctx.basis, ctx.K, ctx.mu, M)
        elif method == "eopt":
            sel = greedy_eoptimal(ctx.basis, ctx.K, M)
        else:
            return ctx.select(method, M)
        return sel.indices

    rows = {(r.method, r.sweep, r.trial): r for r in result.rows}
    for trial in range(spec.trials):
        ctx = bench._TrialContext(spec, spec.n, trial)
        fresh = bench._TrialContext(spec, spec.n, trial)
        for method in spec.methods:
            for M in spec.sweep:
                indices = direct(ctx, method, M)
                assert fresh.select(method, M) == indices
                row = rows[(method, M, trial)]
                obs = observe(ctx.signal, indices, spec.sigma2,
                              seed=child_seed(row.seed, "noise", method))
                rec = _per_row_estimate(ctx, method, obs, use_blue=False)
                value = rmse(rec.values, ctx.signal.values)
                assert repr(row.value) == repr(value), (method, M, trial)
        # a budget past the largest in the spec runs the method again
        assert fresh.select("agod", 10) == direct(ctx, "agod", 10)


# rmse_vs_snr's sweep starts at 0 dB, so its noise variance comes from the
# SNR; rmse_vs_n builds one context per size, and draws no noise
BATCH_SPECS = {
    "rmse_vs_snr": """
study = rmse_vs_snr
n = 60
K = 4
methods = fagod, agod, fagod-exact, dopt, rand-uniform, rand-leverage
sweep = 0, 10, 20
trials = 2
base_seed = 9
""",
    "rmse_vs_n": """
study = rmse_vs_n
K = auto
sigma2 = 0
methods = fagod, agod, fagod-exact, aopt, rand-uniform
sweep = 60, 80
trials = 2
base_seed = 9
"""}


@pytest.mark.parametrize("spare_cpu", [True, False])
@pytest.mark.parametrize("use_blue", [True, False])
@pytest.mark.parametrize("study", sorted(BATCH_SPECS))
def test_batched_rows_are_the_per_row_path(study, use_blue, spare_cpu):
    # every value, batched or BLUE, is observe -> reconstruct -> rmse on a
    # fresh context, bit for bit
    spec = parse_spec_text(BATCH_SPECS[study])
    for trial in range(spec.trials):
        rows = bench._rmse_trial_rows(spec, trial, use_blue, spare_cpu)
        keyed = {(row.sweep, row.method): row for row in rows}
        assert len(keyed) == len(rows) == len(spec.sweep) * len(spec.methods)
        contexts = {}
        for (sweep_value, method), row in keyed.items():
            n = sweep_value if study == "rmse_vs_n" else spec.n
            if n not in contexts:
                contexts[n] = bench._TrialContext(spec, n, trial)
            ctx = contexts[n]
            sigma2 = snr_to_sigma2(sweep_value) if study == "rmse_vs_snr" \
                else spec.sigma2
            assert row.seed == bench._trial_seed(spec, trial, sweep_value)
            obs = observe(ctx.signal, ctx.select(method, ctx.K), sigma2,
                          seed=child_seed(row.seed, "noise", method))
            rec = _per_row_estimate(ctx, method, obs, use_blue)
            value = rmse(rec.values, ctx.signal.values)
            assert repr(row.value) == repr(value), (sweep_value, method)


def test_first_failing_row_raises_though_a_later_one_fails_first(monkeypatch):
    # (5, fagod) has a non-finite estimate, which the batch finds only
    # when it is solved; (10, agod)'s selection raises before that.  The
    # run raises the earlier row's error, the one the per-row path raises.
    spec = parse_spec_text("study = rmse_vs_size\nn = 24\nK = 4\n"
                           "methods = agod, fagod\nsweep = 5, 10\ntrials = 1")
    real = bench._TrialContext.select
    raised = []

    def select(self, method, M):
        if (method, M) == ("agod", 10):
            raised.append(M)
            raise ValueError("no selection")
        indices = real(self, method, M)
        if method == "fagod":  # the picks stand; the estimate is NaN
            self.filter = dataclasses.replace(
                self.filter, factor=np.full(self.filter.factor.shape, np.nan))
        return indices

    monkeypatch.setattr(bench._TrialContext, "select", select)
    with pytest.raises(RuntimeError) as failure:
        run_experiment(spec, threads=1)
    assert str(failure.value) == (
        "rmse_vs_size failed (method=fagod, sweep=5, trial=0): "
        "reconstruction contains non-finite values")
    assert raised == [10]


@pytest.mark.parametrize("earlier_nan", [False, True])
def test_a_singular_gram_raises_its_rows_error(monkeypatch, earlier_nan):
    # the Gram of (5, fagod), the later row, is exactly singular: a
    # constant factor of 1e10 gives equal entries of 5e20, and mu = 1/99
    # rounds away.  With earlier_nan, (5, agod) before it has a non-finite
    # estimate, and its error wins.
    spec = parse_spec_text("study = rmse_vs_size\nn = 24\nK = 4\n"
                           "methods = agod, fagod\nsweep = 5\ntrials = 1")
    real = bench._TrialContext.loaded_system

    def loaded_system(self, method, indices, sigma2, seed):
        self.signal  # drawn from the true basis before it is replaced
        if method == "fagod":
            self.filter = dataclasses.replace(
                self.filter, factor=np.full(self.filter.factor.shape, 1e10))
        elif earlier_nan:
            self.basis = dataclasses.replace(
                self.basis, eigenvectors=np.full(
                    self.basis.eigenvectors.shape, np.nan))
        return real(self, method, indices, sigma2, seed)

    monkeypatch.setattr(bench._TrialContext, "loaded_system", loaded_system)
    with pytest.raises(RuntimeError) as failure:
        run_experiment(spec, threads=1)
    assert str(failure.value) == (
        "rmse_vs_size failed (method=agod, sweep=5, trial=0): "
        "reconstruction contains non-finite values" if earlier_nan else
        "rmse_vs_size failed (method=fagod, sweep=5, trial=0): "
        "Singular matrix")


# at -3082.5 dB the noise variance (8.9e307) is finite, and the squared
# error of the estimate overflows
OVERFLOW_SPEC = ("study = rmse_vs_snr\nn = 30\nK = 4\nmethods = agod\n"
                 "trials = 1\nsweep = -3082.5\n")


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("use_blue", [False, True])
def test_an_overflowing_rmse_raises_its_rows_error(use_blue):
    with pytest.raises(RuntimeError) as failure:
        run_experiment(parse_spec_text(OVERFLOW_SPEC), threads=1,
                       use_blue=use_blue)
    assert str(failure.value) == (
        "rmse_vs_snr failed (method=agod, sweep=-3082.5, trial=0): "
        "RMSE is not finite")


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("flags", [[], ["--blue"]])
def test_cli_run_exits_2_on_an_overflowing_rmse(tmp_path, capsys, flags):
    path = tmp_path / "overflow.spec"
    out = tmp_path / "overflow.csv"
    path.write_text(OVERFLOW_SPEC + f"out = {out}\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), *flags]) == 2
    assert "(method=agod, sweep=-3082.5, trial=0): RMSE is not finite" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spare_cpu", [True, False])
@pytest.mark.parametrize("model,width", [("G1", 10), ("G2", None),
                                         ("G3", 40)])
def test_joint_stage_matches_the_separate_calls(monkeypatch, model, width,
                                                spare_cpu):
    # a fagod trial's basis and Givens filter, with the sweep beside the
    # solve or after it, equal eigendecompose's and approximate_lowpass's
    # on the trial's own graph bit for bit, and the Laplacian itself is
    # never written.  The trial calls those two by this module's names,
    # which perfbench's tracer wraps; beside the solve, the sweep runs
    # without approximate_lowpass
    n, K, J = 120, 8, 900
    # the signal whose bandwidth sets the basis's width (None: full)
    signal = {10: "GS1", None: "GS2", 40: "GS3"}[width]
    built, calls = [], []

    def recording(graph):
        built.append((graph, build_laplacian(graph)))
        return built[-1][1]

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    monkeypatch.setattr(bench, "build_laplacian", recording)
    for name in ("eigendecompose", "approximate_lowpass"):
        monkeypatch.setattr(bench, name, counted(name, getattr(bench, name)))
    spec = parse_spec_text(
        f"study = rmse_vs_size\ngraph = {model}\nsignal = {signal}\n"
        f"n = {n}\nK = {K}\nJ = {J}\np = 0.08\nmethods = fagod\n"
        "sweep = 8\ntrials = 1\nbase_seed = 4\n")
    ctx = bench._TrialContext(spec, n, 0, spare_cpu)
    assert calls == (["eigendecompose"] if spare_cpu else
                     ["eigendecompose", "approximate_lowpass"])
    (graph, used), = built
    lap = build_laplacian(graph)
    exact, approx = eigendecompose(lap, width), approximate_lowpass(lap, K, J)
    assert used.matrix.tobytes() == lap.matrix.tobytes()
    assert ctx.basis.width == (width or n)
    assert ctx.basis.eigenvalues.tobytes() == exact.eigenvalues.tobytes()
    assert ctx.basis.eigenvectors.tobytes() == exact.eigenvectors.tobytes()
    for got, want in [(ctx.filter.factor, approx.factor),
                      (ctx.filter.approx_eigs, approx.approx_eigs),
                      (ctx.filter.givens.planes, approx.givens.planes),
                      (ctx.filter.givens.thetas, approx.givens.thetas)]:
        assert got.tobytes() == want.tobytes()


def test_exact_filter_rows_build_no_dense_filter(monkeypatch):
    def dense(*args):
        raise AssertionError("exact_lowpass called")

    monkeypatch.setattr(bench, "exact_lowpass", dense)
    spec = parse_spec_text(PREFIX_SPEC.replace(
        "agod, fagod, fagod-exact, god, dopt, aopt, eopt, rand-uniform, "
        "rand-leverage", "fagod-exact"))
    # in process: workers forked before the patch would not call it
    result = run_experiment(spec, threads=1, use_blue=True)
    assert len(result.rows) == len(spec.sweep) * spec.trials
    # --blue never switches fagod-exact to BLUE: its rows are the loaded
    # solve on V_K
    for row in result.rows:
        ctx = bench._TrialContext(spec, spec.n, row.trial)
        indices = ctx.select("fagod-exact", row.sweep)
        obs = observe(ctx.signal, indices, spec.sigma2,
                      seed=child_seed(row.seed, "noise", "fagod-exact"))
        rec = biased_reconstruct(obs, ctx.basis, ctx.K, ctx.mu)
        assert repr(row.value) == repr(rmse(rec.values, ctx.signal.values))


@pytest.mark.parametrize("signal,K,width", [
    ("GS1", "4", 10), ("GS1", "12", 12), ("GS3", "4", 40), ("GS1", "auto", 3),
    ("GS2", "4", None), ("GS1", "60", 60)])
def test_trial_asks_only_for_the_eigenpairs_it_reads(monkeypatch, signal, K,
                                                    width):
    widths = []
    real = bench.eigendecompose

    def recording(lap, K=None):
        widths.append(K)
        return real(lap, K)

    monkeypatch.setattr(bench, "eigendecompose", recording)
    n = 60
    ctx = bench._TrialContext(parse_spec_text(
        f"study = rmse_vs_size\nn = {n}\nK = {K}\nsignal = {signal}\n"
        "methods = agod\nsweep = 5\ntrials = 1"), n, 0)
    # GS2's tail touches every coefficient, so it keeps the full basis; a
    # width of n or more is the full basis too
    assert widths == [width]
    assert ctx.basis.width == min(width or n, n)
    assert ctx.signal.n == n
    assert ctx.basis.low_frequency(ctx.K).shape == (n, ctx.K)


def _graph(n, edges):
    adj = np.zeros((n, n))
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1.0
    return graph_from_adjacency(adj)


def _cycle(n):
    return _graph(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("graph,text,K", [
    # full basis: GS1's width 10 reaches n = 8, and GS2 keeps every pair
    (_cycle(8), "study = suboptimality\nK = 2\nsweep = 2", 2),
    (_cycle(16), "study = rmse_vs_size\nsignal = GS2\nK = 2\nsweep = 2", 2),
    # K below the signal bandwidth on two paths of 7 and 13 nodes: the
    # subset solver checks only lambda_10 / lambda_11, which are apart,
    # while lambda_1 = lambda_2 = 0
    (_graph(20, [(i, i + 1) for i in range(19) if i != 6]),
     "study = rmse_vs_size\nK = 1\nsweep = 2", 1)],
    ids=["full-GS1", "full-GS2", "subset-below-signal"])
def test_trial_checks_the_gap_at_each_bandwidth(monkeypatch, graph, text, K):
    monkeypatch.setattr(bench, "make_graph", lambda *args: graph)
    spec = parse_spec_text(f"{text}\nn = {graph.n}\nmethods = agod\ntrials = 1")
    with pytest.raises(ValueError, match=f"degenerate spectrum at the "
                       f"bandwidth \\(n={graph.n}, K={K}\\)"):
        bench._TrialContext(spec, spec.n, 0)


def test_suboptimality_study_values():
    spec = parse_spec_text(
        "study = suboptimality\nn = 8\nK = 2\nsweep = 2, 3\ntrials = 3\n"
        "methods = fagod-exact, rand-uniform")
    result = run_experiment(spec)
    assert len(result.rows) == 2 * 2 * 3
    for row in result.rows:
        assert 0.0 <= row.value <= 1.0 + 1e-9


def test_alpha_certificate_reports():
    spec = parse_spec_text(
        "study = alpha\nn = 6\nK = 2\nsweep = 0.1, 1.0\ntrials = 2")
    reports = run_alpha_certificate(spec)
    assert len(reports) == 4
    for _, rep in reports:
        assert 0.0 <= rep.alpha_empirical <= 1.0
        assert rep.bound_g == theorem_bounds(rep.mu)[0]
    with pytest.raises(SpecError):
        run_experiment(spec)


def test_subopt_reports():
    spec = parse_spec_text(
        "study = suboptimality\nn = 8\nK = 2\nsweep = 3, 2\ntrials = 2\n"
        "methods = rand-uniform, fagod-exact")
    reports = run_subopt_reports(spec)
    assert len(reports) == 4
    # the oracle reports and the run rows score the first method alike
    rows = {(r.trial, r.sweep): r.value for r in run_experiment(spec).rows
            if r.method == "rand-uniform"}
    for label, M, rep in reports:
        assert rep.g_star <= rep.g_hat
        trial = int(label.rsplit("-t", 1)[1])
        assert repr(rep.r) == repr(rows[(trial, M)]), (label, M)
    assert [(label, M) for label, M, _ in reports] == [
        (f"G1-n8-t{t}", M) for t in range(2) for M in (2, 3)]


# ---------------------------------------------------------------------------
# CLI

def test_cli_validate_ok(tmp_path, capsys):
    path = tmp_path / "ok.spec"
    path.write_text(SMALL_RMSE_SPEC, encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    assert "valid rmse_vs_size spec" in capsys.readouterr().out


def test_cli_validate_malformed(tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text("study = rmse_vs_size\nbogus = 1\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:2" in err


def test_cli_run_deterministic(tmp_path, capsys):
    path = tmp_path / "run.spec"
    path.write_text(SMALL_RMSE_SPEC + f"out = {tmp_path}/r1.csv\n",
                    encoding="utf-8")
    assert main(["run", str(path)]) == 0
    assert "rng=pcg64" in capsys.readouterr().out
    assert main(["run", str(path), "--out", str(tmp_path / "r2.csv"),
                 "--threads", "3"]) == 0
    a = (tmp_path / "r1.csv").read_text()
    b = (tmp_path / "r2.csv").read_text()
    assert a.splitlines()[0] == \
        "study,graph,signal,method,sweep,trial,value,wall_ms,seed"
    assert _strip_wall(a) == _strip_wall(b)


def test_cli_oracle_alpha(tmp_path, capsys):
    path = tmp_path / "alpha.spec"
    path.write_text(
        "study = alpha\nn = 6\nK = 2\nsweep = 0.1\ntrials = 2\n"
        f"out = {tmp_path}/alpha.csv\n", encoding="utf-8")
    assert main(["oracle", "alpha", str(path)]) == 0
    lines = (tmp_path / "alpha.csv").read_text().splitlines()
    assert len(lines) == 3


def test_cli_oracle_subopt(tmp_path):
    path = tmp_path / "sub.spec"
    path.write_text(
        "study = suboptimality\nn = 8\nK = 2\nsweep = 2\ntrials = 2\n"
        f"methods = fagod-exact\nout = {tmp_path}/sub.csv\n", encoding="utf-8")
    assert main(["oracle", "subopt", str(path)]) == 0
    assert len((tmp_path / "sub.csv").read_text().splitlines()) == 3


def test_cli_run_rejects_alpha_study(tmp_path, capsys):
    path = tmp_path / "alpha.spec"
    path.write_text("study = alpha\nn = 6\nsweep = 0.1\ntrials = 1\n",
                    encoding="utf-8")
    assert main(["run", str(path)]) == 1
    assert "oracle alpha" in capsys.readouterr().err


def test_cli_graph_gen(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["graph", "gen", "--model", "G1", "--n", "12", "--seed", "4",
                 "--out", str(out)]) == 0
    graph = load_graph(out)
    assert graph.n == 12
    # the neighbour count is clamped to n - 1, as in a spec's trial graph
    assert main(["graph", "gen", "--model", "G1", "--n", "5", "--seed", "4",
                 "--out", str(out)]) == 0
    assert np.array_equal(
        dense_adjacency(load_graph(out)),
        dense_adjacency(bench.make_graph("G1", 5, 4, 6, 0.05)))
    # a bad value is a validation error, as in a spec
    assert main(["graph", "gen", "--model", "G1", "--n", "30", "--knn", "-3",
                 "--out", str(out)]) == 1
    assert "knn must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--model", "G1", "--n", "1"],
    ["--model", "G1", "--n", "30", "--knn", "0"],
    ["--model", "G2", "--n", "30", "--p", "0"],
    ["--model", "G3", "--n", "4"],
    ["--model", "G2", "--n", "3", "--p", "0.01"],
], ids=lambda flags: "_".join(f.lstrip("-") for f in flags))
def test_cli_graph_gen_rejects_what_validate_rejects(tmp_path, capsys,
                                                     monkeypatch, flags):
    def no_draw(*args):
        raise AssertionError("drew a graph for a rejected value")

    for name in ("gen_sensor", "gen_er", "gen_community"):
        monkeypatch.setattr(bench, name, no_draw)
    # the spec that sets each flag's value
    spec_key = {"--model": "graph", "--n": "n", "--knn": "knn", "--p": "p"}
    spec = tmp_path / "bad.spec"
    spec.write_text("study = rmse_vs_size\n" + "".join(
        f"{spec_key[flag]} = {value}\n"
        for flag, value in zip(flags[::2], flags[1::2])), encoding="utf-8")
    assert main(["validate", str(spec)]) == 1
    # the validator's message after its `file:line: ` anchor
    message = capsys.readouterr().err.split(": ", 2)[2]
    out = tmp_path / "g.txt"
    assert main(["graph", "gen", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}"
    assert not out.exists()


def test_cli_exit_codes(tmp_path, capsys):
    # bad usage -> validation exit code
    assert main(["run"]) == 1
    assert main(["frobnicate"]) == 1
    # missing spec file -> validation
    assert main(["run", str(tmp_path / "missing.spec")]) == 1
    # unwritable output -> runtime
    path = tmp_path / "ok.spec"
    path.write_text(
        "study = rmse_vs_size\nn = 16\nK = 3\nmethods = rand-uniform\n"
        "sweep = 4\ntrials = 1\n", encoding="utf-8")
    assert main(["run", str(path), "--out", "/nonexistent/dir/out.csv"]) == 2
    capsys.readouterr()
    # a thread count below 1 is bad usage, caught before the spec is read;
    # a library caller gets run_experiment's own check
    out = tmp_path / "out.csv"
    for bad in ("0", "-2", "two"):
        assert main(["run", str(path), "--threads", bad, "--out",
                     str(out)]) == 1
        assert "thread count must be an integer of at least 1" in \
            capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="thread count must be at least 1"):
        run_experiment(parse_spec_file(path), threads=0)
    # a bool is an Integral: True would otherwise run as threads = 1
    for bad in (1.5, "2", True, False):
        with pytest.raises(ValueError, match="must be an integer"):
            run_experiment(parse_spec_file(path), threads=bad)


def test_cli_reports_running_out_of_memory_as_a_runtime_error(
        tmp_path, capsys, monkeypatch):
    message = ("Unable to allocate 122. MiB for an array with shape "
               "(4000, 4000) and data type float64")

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(bench, "make_graph", out_of_memory)
    monkeypatch.setattr(bench, "run_experiment", out_of_memory)
    spec = tmp_path / "rmse.spec"
    spec.write_text(SMALL_RMSE_SPEC, encoding="utf-8")
    alpha = tmp_path / "alpha.spec"
    alpha.write_text("study = alpha\nn = 6\nsweep = 0.1\ntrials = 1\n",
                     encoding="utf-8")
    out = tmp_path / "out.txt"
    for argv in (["run", str(spec)],
                 ["graph", "gen", "--model", "G1", "--n", "4000"],
                 ["oracle", "alpha", str(alpha)]):
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: out of memory: {message}\n"
        assert captured.out == "" and not out.exists()
    def bare_memory_error(*args):
        raise MemoryError

    monkeypatch.setattr(bench, "make_graph", bare_memory_error)
    assert main(["graph", "gen", "--model", "G1", "--n", "10", "--out",
                 str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: out of memory: allocation failed\n"
