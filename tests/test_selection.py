import warnings

import numpy as np
import pytest
import scipy.linalg

from hypothesis import given, settings
from hypothesis import strategies as st

from gsample import (SamplingSet, SpectralBasis, approximate_lowpass,
                     build_laplacian, eigendecompose, exact_lowpass,
                     gen_community, gen_er, gen_sensor, greedy_aoptimal,
                     greedy_doptimal, greedy_eoptimal, greedy_select,
                     leverage_scores, objective_agod, objective_aopt,
                     objective_dopt, objective_eopt, objective_fagod,
                     random_select)
from gsample.graphs import SENSOR_KNN
from gsample.oracle import (FactoredFagodState, LoadedGramState,
                            greedy_minimize, leverage_draw_reference,
                            theorem_bounds, update_inverse_rank_one)
from gsample.selection import _greedy_pass, save_sampling_csv

MU = 1 / 99


def _basis(n, k_nn, seed):
    return eigendecompose(build_laplacian(gen_sensor(n, k_nn, seed=seed)))


def _gram_inv(basis, S, K, mu):
    vsk = basis.eigenvectors[list(S), :K]
    return np.linalg.inv(vsk.T @ vsk + mu * np.eye(K))


# ---------------------------------------------------------------------------
# objectives

def test_agod_empty_set():
    basis = _basis(6, 3, 0)
    assert objective_agod((), basis, 2, 0.5) == pytest.approx(2.0, abs=1e-15)


def test_agod_scalar_bandwidth():
    basis = _basis(6, 3, 1)
    S = [2, 4]
    expected = 1.0 / (sum(basis.eigenvectors[i, 0] ** 2 for i in S) + MU)
    assert objective_agod(S, basis, 1, MU) == pytest.approx(expected, rel=1e-12)


def test_agod_matches_dense_inverse():
    basis = _basis(8, 5, 2)
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(20):
        size = int(rng.integers(1, 7))
        S = rng.choice(8, size=size, replace=False).tolist()
        direct = np.max(np.diag(_gram_inv(basis, S, 3, MU)))
        assert objective_agod(S, basis, 3, MU) == pytest.approx(direct, abs=1e-10)


def test_fagod_objective_basics(sensor8):
    _, _, basis = sensor8
    T = exact_lowpass(basis, 3)
    assert objective_fagod((), T, 0.25) == pytest.approx(4.0, abs=1e-15)
    for i in range(8):
        assert objective_fagod([i], T, MU) == pytest.approx(
            1.0 / (T[i, i] + MU), rel=1e-12)


def test_fagod_equals_direct_row_gram(sensor8):
    # with the exact projector, T_SS is exactly V_SK V_SK^T
    _, _, basis = sensor8
    K = 3
    T = exact_lowpass(basis, K)
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(10):
        size = int(rng.integers(1, 6))
        S = rng.choice(8, size=size, replace=False).tolist()
        vsk = basis.eigenvectors[S, :K]
        direct = np.max(np.diag(np.linalg.inv(vsk @ vsk.T + MU * np.eye(size))))
        assert objective_fagod(S, T, MU) == pytest.approx(direct, abs=1e-10)


# ---------------------------------------------------------------------------
# incremental inverse updates

def test_rank_one_update_closed_forms():
    zinv = np.eye(4)
    e1 = np.zeros(4)
    e1[0] = 1.0
    updated = update_inverse_rank_one(zinv, e1)
    assert updated == pytest.approx(np.diag([0.5, 1, 1, 1]), abs=1e-15)
    assert np.array_equal(update_inverse_rank_one(zinv, np.zeros(4)), zinv)


def test_rank_one_update_dense_oracle():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(50):
        k = int(rng.integers(2, 7))
        a = rng.normal(size=(k, k))
        z = a @ a.T + 0.1 * np.eye(k)
        zinv = np.linalg.inv(z)
        v = rng.normal(size=k)
        expected = np.linalg.inv(z + np.outer(v, v))
        assert np.abs(update_inverse_rank_one(zinv, v) - expected).max() <= 1e-9


def test_incremental_state_matches_direct_inverse_every_step():
    # the module's master numerical invariant
    basis = _basis(10, 6, 6)
    K = 4
    state = LoadedGramState(basis.low_frequency(K), MU)
    rng = np.random.Generator(np.random.PCG64(13))
    for j in rng.permutation(10):
        state.add(int(j))
        direct = _gram_inv(basis, state.selected, K, MU)
        assert np.abs(state.inverse - direct).max() <= 1e-8

    T = exact_lowpass(basis, K)
    fstate = FactoredFagodState(basis.low_frequency(K), MU)
    for j in rng.permutation(10)[:7]:
        fstate.add(int(j))
        S = fstate.selected
        direct = np.linalg.inv(T[np.ix_(S, S)] + MU * np.eye(len(S)))
        assert fstate.objective() == pytest.approx(np.diag(direct).max(),
                                                   rel=1e-10)


def test_state_rounds_each_entry_of_its_u_update_twice():
    # U -= h u^T rounds each product and then each difference, as the
    # compiled pass does; a fused multiply-subtract, which BLAS's dger
    # may use, leaves other last bits
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(5):
        n, K = 40, 6
        state = LoadedGramState(rng.normal(size=(n, K)), 0.3)
        before = state.projections()[0].copy()
        u, _, h = state.add(int(rng.integers(n)))
        loop = [[float(before[i, k]) - float(h[i]) * float(u[k])
                 for k in range(K)] for i in range(n)]
        assert state.projections()[0].tobytes() == np.array(loop).tobytes()


def test_greedy_runs_keep_incremental_state_faithful(sensor10):
    # replay the exact greedy selection orders through fresh state objects
    _, _, basis = sensor10
    K = 3
    sel = greedy_select("agod", 8, basis=basis, K=K, mu=MU)
    state = LoadedGramState(basis.low_frequency(K), MU)
    for j in sel.indices:
        state.add(j)
        direct = _gram_inv(basis, state.selected, K, MU)
        assert np.abs(state.inverse - direct).max() <= 1e-8

    T = exact_lowpass(basis, K)
    fsel = greedy_select("fagod", 8, filt=T, mu=MU)
    for m in range(1, 9):
        S = list(fsel.indices[:m])
        direct = np.linalg.inv(T[np.ix_(S, S)] + MU * np.eye(m))
        assert fsel.objective_trace[m - 1] == pytest.approx(
            np.diag(direct).max(), rel=1e-10)


def test_greedy_fagod_accepts_filter_object(sensor10):
    _, lap, basis = sensor10
    filt = approximate_lowpass(lap, 3, J=60)
    sel = greedy_select("fagod", 4, filt=filt, mu=MU)
    again = greedy_select("fagod", 4, filt=filt.filter, mu=MU)
    assert sel.indices == again.indices
    with pytest.raises(ValueError):
        LoadedGramState(basis.low_frequency(3), 0.0)
    with pytest.raises(ValueError, match="mu must be positive"):
        greedy_select("fagod", 4, filt=filt.filter, mu=-1.0)


@pytest.mark.parametrize("objective", [
    lambda basis, mu: theorem_bounds(mu),
    lambda basis, mu: objective_agod([0, 3, 7], basis, 4, mu),
    lambda basis, mu: objective_fagod([0, 3, 7], exact_lowpass(basis, 4), mu),
    lambda basis, mu: objective_dopt([0, 3, 7], basis, 4, mu),
    lambda basis, mu: objective_aopt([0, 3, 7], basis, 4, mu),
    lambda basis, mu: LoadedGramState(basis.low_frequency(4), mu).objective()],
    ids=["theorem_bounds", "agod", "fagod", "dopt", "aopt", "state"])
def test_nan_loading_is_rejected(objective):
    # NaN passes `mu <= 0` and `mu < 0`, and each of these returns nan
    # from it unless the check is written the other way round
    with pytest.raises(ValueError, match="mu must be"):
        objective(_basis(30, SENSOR_KNN, 0), float("nan"))


def test_dense_filter_is_factored_or_rejected():
    # a dense T is factored from its eigenpairs: a rank-deficient PSD T
    # keeps its rank, and rounding below zero is dropped, not rejected
    rng = np.random.Generator(np.random.PCG64(9))
    factor = rng.normal(size=(7, 2))
    T = factor @ factor.T
    sel = greedy_select("fagod", 5, filt=T, mu=MU)
    slow, trace = greedy_minimize(lambda S: objective_fagod(S, T, MU), 7, 5)
    assert list(sel.indices) == slow
    assert sel.objective_trace == pytest.approx(trace, rel=1e-10)
    assert greedy_select("fagod", 3, filt=np.zeros((4, 4)),
                         mu=0.5).objective_trace == (2.0, 2.0, 2.0)
    not_psd = T - 0.1 * np.eye(7)
    asymmetric = T.copy()
    asymmetric[0, 1] += 1.0  # eigh, reading one triangle, would miss it
    for bad, message in ((not_psd, "not positive semidefinite"),
                         (asymmetric, "symmetric"),
                         (np.ones((3, 4)), "square"),
                         (np.ones(4), "square"),
                         (np.where(np.eye(4) > 0, np.nan, 0.0), "finite"),
                         (np.full((2, 2), np.inf), "finite")):
        with pytest.raises(ValueError, match=message):
            greedy_select("fagod", 2, filt=bad, mu=MU)


def test_candidate_objectives_match_from_scratch(sensor10):
    _, _, basis = sensor10
    K = 3
    state = LoadedGramState(basis.low_frequency(K), MU)
    for j in (4, 1, 7):
        state.add(j)
    scores = state.candidate_objectives()
    for j in range(10):
        if j in state.selected:
            assert scores[j] == np.inf
        else:
            assert scores[j] == pytest.approx(
                objective_agod(state.selected + [j], basis, K, MU), abs=1e-9)

    T = exact_lowpass(basis, K)
    fstate = FactoredFagodState(basis.low_frequency(K), MU)
    for j in (2, 8):
        fstate.add(j)
    fscores = fstate.candidate_objectives()
    for j in range(10):
        if j in fstate.selected:
            assert fscores[j] == np.inf
        else:
            assert fscores[j] == pytest.approx(
                objective_fagod(fstate.selected + [j], T, MU), abs=1e-9)


def _model_laplacian(model, n, seed):
    if model == "G1":
        graph = gen_sensor(n, 6, seed)
    elif model == "G2":
        graph = gen_er(n, min(1.0, 8.0 / n), seed)
    else:
        graph = gen_community(n, seed)
    return build_laplacian(graph)


def _approx_filter(model, n, K, seed):
    return approximate_lowpass(_model_laplacian(model, n, seed), K)


@pytest.mark.parametrize("model,n,K,M", [
    ("G1", 100, 5, 30), ("G2", 100, 5, 30), ("G3", 100, 5, 30),
    ("G1", 200, 10, 30), ("G2", 200, 10, 30), ("G3", 200, 10, 30)])
def test_factored_fagod_matches_dense_filter_path(model, n, K, M):
    # the Givens factor V against the factor greedy_select takes from the
    # eigenpairs of the dense T = V V^T: two factors of one filter, both
    # held at every step to the direct inverse
    for seed in range(2):
        filt = _approx_filter(model, n, K, seed)
        fast = greedy_select("fagod", M, filt=filt, mu=MU)
        dense = greedy_select("fagod", M, filt=filt.filter, mu=MU)
        assert fast.indices == dense.indices
        assert fast.objective_trace == pytest.approx(dense.objective_trace,
                                                     rel=1e-10)
        for m in range(1, M + 1):
            assert fast.objective_trace[m - 1] == pytest.approx(
                objective_fagod(list(fast.indices[:m]), filt.filter, MU),
                rel=1e-10)


def test_factored_fagod_matches_plain_greedy_oracle():
    filt = _approx_filter("G1", 12, 3, 4)
    T = filt.filter
    sel = greedy_select("fagod", 6, filt=filt, mu=MU)
    slow, trace = greedy_minimize(lambda S: objective_fagod(S, T, MU), 12, 6)
    assert list(sel.indices) == slow
    assert sel.objective_trace == pytest.approx(trace, rel=1e-10)


def test_factored_candidate_objectives_match_from_scratch():
    filt = _approx_filter("G1", 16, 4, 2)
    T = filt.filter
    state = FactoredFagodState(filt.factor, MU)
    assert state.objective() == 1.0 / MU
    for j in (5, 11, 0, 7, 3, 14):
        scores = state.candidate_objectives()
        for c in range(16):
            if c in state.selected:
                assert scores[c] == np.inf
            else:
                assert scores[c] == pytest.approx(
                    objective_fagod(state.selected + [c], T, MU), rel=1e-10)
        state.add(j)
        assert state.objective() == pytest.approx(
            objective_fagod(state.selected, T, MU), rel=1e-10)
    with pytest.raises(ValueError, match="already selected"):
        state.add(5)
    with pytest.raises(ValueError):
        FactoredFagodState(filt.factor, 0.0)


@st.composite
def _degenerate_factor(draw):
    # small factors with repeated rows and a zero row, so T = V V^T is
    # singular and T_SS turns singular once two copies are selected
    n = draw(st.integers(2, 8))
    K = draw(st.integers(1, 3))
    values = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 1e-3, 2.0])
    rows = draw(st.lists(st.lists(values, min_size=K, max_size=K),
                         min_size=n - 1, max_size=n - 1))
    factor = np.array(rows + [[0.0] * K])
    if n > 2:
        factor[1] = factor[0]
    order = draw(st.permutations(range(n)))
    return factor[list(order)]


def _assert_fagod_state_matches_from_scratch(state, T, mu):
    n = T.shape[0]
    for _ in range(n):
        scores = state.candidate_objectives()
        for c in range(n):
            if c not in state.selected:
                assert scores[c] == pytest.approx(
                    objective_fagod(state.selected + [c], T, mu), rel=1e-7)
        state.add(int(np.argmin(scores)))
        assert state.objective() == pytest.approx(
            objective_fagod(state.selected, T, mu), rel=1e-7)


@settings(max_examples=150, deadline=None)
@given(_degenerate_factor(), st.floats(-6.0, 0.0))
def test_factored_state_on_degenerate_factors(factor, log_mu):
    mu = 10.0 ** log_mu
    _assert_fagod_state_matches_from_scratch(
        FactoredFagodState(factor, mu), factor @ factor.T, mu)


@settings(max_examples=150, deadline=None)
@given(_degenerate_factor(), st.floats(-6.0, 0.0))
def test_dense_filter_path_on_degenerate_factors(factor, log_mu):
    # greedy_select factors the singular dense T itself; each trace value
    # is the from-scratch objective of its prefix
    mu = 10.0 ** log_mu
    T = factor @ factor.T
    sel = greedy_select("fagod", len(T), filt=T, mu=mu)
    for m, value in enumerate(sel.objective_trace, start=1):
        assert value == pytest.approx(
            objective_fagod(sel.indices[:m], T, mu), rel=1e-7)


@settings(max_examples=150, deadline=None)
@given(_degenerate_factor(), st.floats(-6.0, 0.0))
def test_loaded_gram_state_on_degenerate_factors(factor, log_mu):
    # Z^-1 and the agod, aopt and dopt scores of the shared state against
    # the loaded Gram inverted from scratch at every step
    mu = 10.0 ** log_mu
    n, K = factor.shape
    state = LoadedGramState(factor, mu)
    for _ in range(n):
        rows = factor[state.selected]
        z = rows.T @ rows + mu * np.eye(K)
        zinv = np.linalg.inv(z)
        assert np.abs(state.inverse - zinv).max() <= 1e-7 * np.abs(zinv).max()
        assert state.objective() == pytest.approx(np.diag(zinv).max(), rel=1e-7)
        agod = state.candidate_objectives()
        aopt = state.candidate_traces()
        _, gain = state.projections()
        for c in range(n):
            v = factor[c]
            if c in state.selected:
                assert agod[c] == np.inf and aopt[c] == np.inf
                continue
            grown = np.linalg.inv(z + np.outer(v, v))
            assert agod[c] == pytest.approx(np.diag(grown).max(), rel=1e-7)
            assert aopt[c] == pytest.approx(np.trace(grown), rel=1e-7)
            assert gain[c] == pytest.approx(v @ np.linalg.solve(z, v), rel=1e-7)
        state.add(int(np.argmin(agod)))


@pytest.mark.parametrize("model", ["G1", "G2", "G3"])
def test_kept_projections_hold_to_scratch_every_step(model):
    # U = V Z^-1 and g are kept by rank-one updates from the first step;
    # at each step of an aopt pass past K they, and the aopt
    # traces read off the kept U, stay within 1e-8 of V Z^-1 from scratch
    # (the drift grows as 1 / mu and read about 2e-10 at mu = 1e-6)
    n, K, M = 200, 10, 40
    V = eigendecompose(_model_laplacian(model, n, 1), K + 1).low_frequency(K)
    for mu in (MU, 1e-3, 1e-6):
        state = LoadedGramState(V, mu)
        for _ in range(M):
            u, g = state.projections()
            traces = state.candidate_traces()
            rows = V[state.selected]
            zinv = np.linalg.inv(rows.T @ rows + mu * np.eye(K))
            U = V @ zinv
            G = np.einsum("ij,ij->i", U, V)
            free = ~np.isin(np.arange(n), state.selected)
            T = np.trace(zinv) - np.einsum("ij,ij->i", U, U) / (1.0 + G)
            assert np.abs(u - U).max() <= 1e-8 * np.abs(U).max()
            assert (np.abs(g - G) <= 1e-8 * (1.0 + G)).all()
            assert (np.abs(traces - T)[free] <= 1e-8 * np.abs(T[free])).all()
            assert (traces[~free] == np.inf).all()
            state.add(int(np.argmin(traces)))


# ---------------------------------------------------------------------------
# compiled greedy passes against the numpy states

# The passes round each entry as the states do but sum their dot
# products in the kernel's own order, so their traces differ from the
# states' in the last bits.  Worst relative deviation seen: 1.4e-10 over
# G1, G2 and G3 at n = 100 and 200, K = n / 20, M = 4K and mu down to
# 1e-6, and 5.3e-10 along the picks of 10,000 degenerate factors; the
# absolute floor covers a dopt trace near zero.
PASS_RTOL = 1e-8
PASS_METHODS = ("agod", "fagod", "dopt", "aopt")


def _state_scores(method, state):
    """Each node's score on the numpy state, smallest best (inf where
    selected); dopt scores -(1 + g_j), its determinant gain."""
    if method == "dopt":
        return np.where(state._taken, np.inf, -1.0 - state.g)
    if method == "aopt":
        return state.candidate_traces()
    return state.candidate_objectives()


def _replay_on_state(method, factor, mu, picks):
    """The numpy state driven through `picks`: at each step the scores
    and the trace value of the pick."""
    state = (FactoredFagodState if method == "fagod"
             else LoadedGramState)(factor, mu)
    logdet = state.K * np.log(mu)
    for j in picks:
        scores = _state_scores(method, state)
        if method == "dopt":
            logdet += np.log1p(state.g[j])
            value = -logdet / state.K
        else:
            value = scores[j]
        yield scores, float(value)
        state.add(j)


def assert_pass_matches_states(method, factor, mu, M, sel=None,
                               ties=False):
    """The compiled pass picks what the numpy state picks, step by step,
    with the trace within PASS_RTOL; with `ties`, each pick need only
    score the state's best to within PASS_RTOL."""
    sel = sel or _greedy_pass(method, factor, mu, M)
    for picked, (scores, value), got in zip(
            sel.indices, _replay_on_state(method, factor, mu, sel.indices),
            sel.objective_trace):
        best = scores.min()
        if ties:
            assert scores[picked] <= best + PASS_RTOL * abs(best)
        else:
            assert picked == int(np.argmin(scores))
        assert got == pytest.approx(value, rel=PASS_RTOL, abs=PASS_RTOL)
    return sel


@pytest.mark.parametrize("model", ["G1", "G2", "G3"])
@pytest.mark.parametrize("mu", [MU, 1e-3, 1e-6])
def test_passes_match_numpy_states(model, mu):
    n, K, M = 200, 10, 40
    lap = _model_laplacian(model, n, 4)
    basis = eigendecompose(lap, K + 1)
    V = basis.low_frequency(K)
    filt = approximate_lowpass(lap, K)
    for method, factor, sel in [
            ("agod", V, greedy_select("agod", M, basis=basis, K=K, mu=mu)),
            ("fagod", V, greedy_select("fagod", M, basis=basis, K=K, mu=mu)),
            ("fagod", filt.factor, greedy_select("fagod", M, filt=filt,
                                                 mu=mu)),
            ("dopt", V, greedy_doptimal(basis, K, mu, M)),
            ("aopt", V, greedy_aoptimal(basis, K, mu, M)),
            ("agod", filt.factor, None)]:
        assert_pass_matches_states(method, factor, mu, M, sel)


@settings(max_examples=100, deadline=None)
@given(_degenerate_factor(), st.floats(-6.0, 0.0),
       st.sampled_from(PASS_METHODS))
def test_passes_tie_numpy_states_on_degenerate_factors(factor, log_mu,
                                                       method):
    # twin and mirror-image rows tie in exact arithmetic, and rounding
    # breaks such a tie by the order of each sum: in 28 of 120,000 passes
    # the pass took the other twin.  Along its own picks every pick
    # scores the numpy state's best to within PASS_RTOL (1.4e-11 seen)
    # and every trace value is the state's
    n = len(factor)
    sel = assert_pass_matches_states(method, factor, 10.0 ** log_mu, n,
                                     ties=True)
    assert sorted(sel.indices) == list(range(n))


@pytest.mark.parametrize("method", PASS_METHODS)
def test_passes_break_ties_by_index(method):
    # a constant column: every free node scores the same, so the picks
    # run 0, 1, 2, ...
    flat = np.full((9, 1), 1 / 3)
    assert _greedy_pass(method, flat, 0.5, 9).indices == tuple(range(9))
    # each row three times: twins tie at every step, and a taken twin
    # leaves the next one to win
    rng = np.random.default_rng(2)
    factor = np.repeat(rng.standard_normal((5, 3)), 3, axis=0)[::-1].copy()
    assert_pass_matches_states(method, factor, 1e-3, 15)


@pytest.mark.parametrize("method", PASS_METHODS)
def test_pass_budgets_one_and_n(method):
    n, K = 40, 4
    V = eigendecompose(_model_laplacian("G1", n, 2), K + 1).low_frequency(K)
    one = assert_pass_matches_states(method, V, MU, 1)
    full = assert_pass_matches_states(method, V, MU, n)
    assert full.indices[:1] == one.indices
    assert sorted(full.indices) == list(range(n))


@pytest.mark.parametrize("method", PASS_METHODS)
def test_pass_reads_a_strided_factor(method):
    # V_K is a column slice of the stored eigenvectors.  The pass copies
    # it, and a Fortran-ordered V_K too, to C order before numpy sums g
    # and U = V / mu, so each gives its C copy's picks and traces bitwise
    n, K = 60, 3
    V = eigendecompose(_model_laplacian("G2", n, 1), K + 4).low_frequency(K)
    assert V.strides[0] > K * V.itemsize
    want = _greedy_pass(method, V.copy(), MU, 20)
    assert _greedy_pass(method, V, MU, 20) == want
    assert _greedy_pass(method, np.asfortranarray(V), MU, 20) == want


@pytest.mark.parametrize("method", ["dopt", "aopt"])
def test_pass_step_one_is_the_states_on_every_layout(method, layout_factors):
    # test_kernels.py holds agod's and fagod's scans to the states on
    # these factors; dopt and aopt have no scan of their own.  Were only
    # the pass to copy a factor to C order, aopt's step 1 would move on 3
    # of the Fortran-ordered ones
    for factor in layout_factors:
        sel = _greedy_pass(method, factor, 1e-3, 1)
        scores, value = next(_replay_on_state(method, factor, 1e-3,
                                              sel.indices))
        assert sel.indices[0] == int(np.argmin(scores))
        assert sel.objective_trace[0] == value


@pytest.mark.parametrize("method", PASS_METHODS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e160])
def test_non_finite_factor_fails_loudly(method, bad):
    # dopt and aopt used to return picks with a NaN trace here.  A finite
    # 1e160 overflows g_4 to inf: fagod's 1 / (mu (1 + g_4)) is then a
    # finite 0, and it used to return node 4 with a trace of 0.0
    factor = np.random.default_rng(3).standard_normal((5, 2))
    factor[4, 1] = bad
    basis = SpectralBasis(np.zeros(2), factor)
    select = {"agod": lambda M: greedy_select("agod", M, basis=basis, K=2),
              "fagod": lambda M: greedy_select("fagod", M, basis=basis, K=2),
              "dopt": lambda M: greedy_doptimal(basis, 2, MU, M),
              "aopt": lambda M: greedy_aoptimal(basis, 2, MU, M)}[method]
    for M in (1, 5):
        with pytest.raises(ValueError, match="finite"):
            select(M)


def test_agod_dopt_aopt_match_plain_greedy_oracle_on_many_draws():
    # the small G1 instance of the benchmark's oracle check over 36 draws:
    # the incremental picks against from-scratch objectives
    n, K, M = 30, 4, 8
    for seed in range(36):
        basis = eigendecompose(build_laplacian(gen_sensor(n, 6, seed)))
        for sel, objective in [
                (greedy_select("agod", M, basis=basis, K=K, mu=MU),
                 objective_agod),
                (greedy_doptimal(basis, K, MU, M), objective_dopt),
                (greedy_aoptimal(basis, K, MU, M), objective_aopt)]:
            slow, _ = greedy_minimize(
                lambda S: objective(S, basis, K, MU), n, M)
            assert list(sel.indices) == slow, (seed, objective.__name__)


def test_loaded_gram_state_validation():
    with pytest.raises(ValueError, match="n x K"):
        LoadedGramState(np.ones(3), MU)
    state = LoadedGramState(np.eye(3)[:, :2], 0.5)
    assert state.objective() == 2.0
    state.add(1)
    with pytest.raises(ValueError, match="already selected"):
        state.add(1)
    assert state.selected == [1]


# ---------------------------------------------------------------------------
# greedy selection

def _naive_greedy(objective, n, M):
    selected = []
    trace = []
    for _ in range(M):
        best, bj = np.inf, -1
        for j in range(n):
            if j in selected:
                continue
            val = objective(selected + [j])
            if val < best:
                best, bj = val, j
        selected.append(bj)
        trace.append(best)
    return selected, trace


def test_greedy_agod_matches_naive_oracle():
    basis = _basis(6, 3, 7)
    sel = greedy_select("agod", 3, basis=basis, K=2, mu=0.01)
    naive, trace = _naive_greedy(lambda S: objective_agod(S, basis, 2, 0.01), 6, 3)
    assert list(sel.indices) == naive
    assert sel.objective_trace == pytest.approx(trace, rel=1e-9)


def test_greedy_fagod_matches_naive_oracle(sensor8):
    _, _, basis = sensor8
    T = exact_lowpass(basis, 2)
    sel = greedy_select("fagod", 4, filt=T, mu=MU)
    naive, _ = _naive_greedy(lambda S: objective_fagod(S, T, MU), 8, 4)
    assert list(sel.indices) == naive


def test_greedy_full_budget_is_permutation(sensor8):
    _, _, basis = sensor8
    sel = greedy_select("agod", 8, basis=basis, K=2, mu=MU)
    assert sorted(sel.indices) == list(range(8))


def test_greedy_god_runs_and_matches_naive():
    basis = _basis(6, 3, 8)
    sel = greedy_select("god", 3, basis=basis, K=2)
    naive, _ = _naive_greedy(lambda S: objective_agod(S, basis, 2, 0.0), 6, 3)
    assert list(sel.indices) == naive


def _synthetic_basis(n, seed):
    # connected-graph Laplacians have a constant first eigenvector, which
    # makes every K = 1 criterion tie across nodes; a random orthogonal
    # basis exercises the scalar case without the degeneracy
    from gsample import SpectralBasis
    rng = np.random.Generator(np.random.PCG64(seed))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return SpectralBasis(np.arange(n, dtype=float), q)


def test_k1_first_pick_agrees_across_methods():
    basis = _synthetic_basis(9, 30)
    row_energy = basis.eigenvectors[:, 0] ** 2
    best = int(np.argmax(row_energy))
    T = exact_lowpass(basis, 1)
    assert greedy_select("agod", 1, basis=basis, K=1, mu=MU).indices[0] == best
    assert greedy_select("fagod", 1, filt=T, mu=MU).indices[0] == best
    assert greedy_doptimal(basis, 1, MU, 1).indices[0] == best
    assert greedy_aoptimal(basis, 1, MU, 1).indices[0] == best
    assert greedy_eoptimal(basis, 1, 1).indices[0] == best


def test_k1_full_selections_agree():
    basis = _synthetic_basis(9, 31)
    a = greedy_select("agod", 5, basis=basis, K=1, mu=MU).indices
    assert greedy_doptimal(basis, 1, MU, 5).indices == a
    assert greedy_aoptimal(basis, 1, MU, 5).indices == a
    assert greedy_eoptimal(basis, 1, 5).indices == a


def test_greedy_determinism(sensor10):
    _, _, basis = sensor10
    a = greedy_select("agod", 5, basis=basis, K=3, mu=MU)
    b = greedy_select("agod", 5, basis=basis, K=3, mu=MU)
    assert a.indices == b.indices
    assert a.objective_trace == b.objective_trace


def test_greedy_budget_validation(sensor8):
    _, _, basis = sensor8
    with pytest.raises(ValueError):
        greedy_select("agod", 0, basis=basis, K=2, mu=MU)
    with pytest.raises(ValueError):
        greedy_select("agod", 9, basis=basis, K=2, mu=MU)
    with pytest.raises(ValueError):
        greedy_select("nope", 2, basis=basis, K=2, mu=MU)


def test_doptimal_first_pick_and_oracle():
    basis = _basis(6, 3, 14)
    K = 3
    # determinant lemma: the first pick maximizes the row norm
    norms = (basis.eigenvectors[:, :K] ** 2).sum(axis=1)
    sel = greedy_doptimal(basis, K, MU, 4)
    assert sel.indices[0] == int(np.argmax(norms))
    naive, _ = _naive_greedy(lambda S: objective_dopt(S, basis, K, MU), 6, 4)
    assert list(sel.indices) == naive
    # trace records the normalized log determinant criterion
    for step in range(4):
        assert sel.objective_trace[step] == pytest.approx(
            objective_dopt(sel.indices[:step + 1], basis, K, MU), abs=1e-8)


def test_aoptimal_empty_value_and_oracle():
    basis = _basis(6, 3, 15)
    assert objective_aopt((), basis, 4, 0.5) == pytest.approx(8.0, abs=1e-12)
    sel = greedy_aoptimal(basis, 2, MU, 4)
    naive, _ = _naive_greedy(lambda S: objective_aopt(S, basis, 2, MU), 6, 4)
    assert list(sel.indices) == naive


@pytest.mark.parametrize("model", ["G1", "G2", "G3"])
def test_aopt_dopt_match_plain_greedy_oracle(model):
    # the incremental loop against from-scratch objectives at n = 40
    n, K, M = 40, 4, 12
    basis = eigendecompose(_model_laplacian(model, n, 3))
    for greedy, objective in ((greedy_aoptimal, objective_aopt),
                              (greedy_doptimal, objective_dopt)):
        sel = greedy(basis, K, MU, M)
        slow, trace = greedy_minimize(
            lambda S: objective(S, basis, K, MU), n, M)
        assert list(sel.indices) == slow
        assert sel.objective_trace == pytest.approx(trace, rel=1e-10)


def test_eoptimal_first_pick_and_oracle():
    basis = _basis(6, 3, 16)
    K = 3
    norms = np.sqrt((basis.eigenvectors[:, :K] ** 2).sum(axis=1))
    sel = greedy_eoptimal(basis, K, 4)
    assert sel.indices[0] == int(np.argmax(norms))
    # maximization oracle
    selected = []
    for _ in range(4):
        best, bj = -np.inf, -1
        for j in range(6):
            if j in selected:
                continue
            val = objective_eopt(selected + [j], basis, K)
            if val > best:
                best, bj = val, j
        selected.append(bj)
    assert list(sel.indices) == selected
    # the trace is the criterion itself, not its negation
    assert sel.objective_trace == tuple(
        objective_eopt(sel.indices[:m], basis, K) for m in range(1, 5))


def test_random_select_modes(sensor10):
    _, _, basis = sensor10
    full = random_select("uniform", basis, 3, 10, seed=0)
    assert sorted(full.indices) == list(range(10))
    a = random_select("leverage", basis, 3, 4, seed=5)
    b = random_select("leverage", basis, 3, 4, seed=5)
    assert a.indices == b.indices
    # a random set minimizes no objective, so it carries no trace
    assert a.objective_trace == ()
    with pytest.raises(ValueError):
        random_select("other", basis, 3, 2, seed=0)


def test_leverage_two_node_symmetry(path2):
    _, _, basis = path2
    # equal leverage scores: the first draw is a fair coin
    assert leverage_scores(basis, 1) == pytest.approx([0.5, 0.5], abs=1e-12)
    picks = np.array([random_select("leverage", basis, 1, 1, seed=s).indices[0]
                      for s in range(400)])
    ones = picks.sum()
    assert abs(ones - 200) <= 4 * np.sqrt(400 * 0.25)


def _leverage_basis(kind, n, K, rs):
    """(V, nodes with nonzero leverage): a random orthonormal basis, one
    whose K lowest columns are K unit vectors (K nodes tied at 1/K, the
    rest at zero), or one whose rows all have one leverage (scaled
    Hadamard columns, n a power of two)."""
    if kind == 1:
        return np.eye(n)[:, rs.permutation(n)], K
    if kind == 2:
        return scipy.linalg.hadamard(n) / np.sqrt(n), n
    return np.linalg.qr(rs.normal(size=(n, n)))[0], n


def test_leverage_draw_is_the_choice_loop():
    rs = np.random.default_rng(33)
    ties = 0
    for seed in range(510):
        kind = seed % 3
        # past 128 weights numpy's sum splits into halves
        n = int(rs.choice([2, 4, 16, 32, 128, 256] if kind == 2
                          else [2, 7, 16, 45, 130, 200]))
        K = int(rs.integers(1, n + 1))
        vectors, nonzero = _leverage_basis(kind, n, K, rs)
        basis = SpectralBasis(np.arange(n, dtype=float), vectors)
        M = int(rs.integers(1, nonzero + 1))
        picks = random_select("leverage", basis, K, M, seed).indices
        weights = leverage_scores(basis, K)
        assert picks == leverage_draw_reference(weights, M, seed), \
            (seed, n, K, M)
        ties += len(set(weights[list(picks)].tolist())) < M
    assert ties >= 150  # draws among equal leverage scores


def test_leverage_draw_past_the_nonzero_leverage_names_the_budget():
    # K = 2 unit vectors: nodes 0 and 1 hold all the leverage
    basis = SpectralBasis(np.arange(6.0), np.eye(6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by a zero sum
        with pytest.raises(ValueError, match=r"M=3 nodes .* 2 have it"):
            random_select("leverage", basis, 2, 3, 1)
        assert sorted(random_select("leverage", basis, 2, 2, 1).indices) \
            == [0, 1]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_leverage_draw_rejects_non_finite_leverage(bad):
    # 1e200 squares past the float range
    vectors = np.eye(4)
    vectors[2, 0] = bad
    basis = SpectralBasis(np.arange(4.0), vectors)
    with pytest.raises(ValueError, match="finite"):
        random_select("leverage", basis, 2, 2, 0)


def test_sampling_set_validation():
    with pytest.raises(ValueError):
        SamplingSet((1, 1), (0.5, 0.4))
    with pytest.raises(ValueError):
        SamplingSet((1, 2), (0.5,))
    # an empty trace marks a selection that minimizes no objective
    assert SamplingSet((1, 2), ()).objective_trace == ()


def test_sampling_csv(tmp_path, sensor8):
    _, _, basis = sensor8
    sel = greedy_select("agod", 3, basis=basis, K=2, mu=MU)
    path = tmp_path / "sel.csv"
    save_sampling_csv(sel, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,node,objective"
    assert len(lines) == 4
    assert lines[1].startswith(f"1,{sel.indices[0]},")


def test_sampling_csv_without_trace(tmp_path, sensor8):
    _, _, basis = sensor8
    sel = random_select("uniform", basis, 2, 8, seed=3)
    path = tmp_path / "rand.csv"
    save_sampling_csv(sel, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,node,objective"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(step) for step, _, _ in rows] == list(range(1, 9))
    assert tuple(int(node) for _, node, _ in rows) == sel.indices
    assert all(obj == "" for _, _, obj in rows)


# ---------------------------------------------------------------------------
# structural properties

def test_agod_monotone_decrease_200_instances():
    rng = np.random.Generator(np.random.PCG64(20))
    checked = 0
    for seed in range(10):
        basis = _basis(7, 4, 100 + seed)
        for _ in range(20):
            size = int(rng.integers(0, 5))
            S = rng.choice(7, size=size, replace=False).tolist()
            base = objective_agod(S, basis, 2, MU)
            j = int(rng.choice([x for x in range(7) if x not in S]))
            assert objective_agod(S + [j], basis, 2, MU) <= base + 1e-12
            checked += 1
    assert checked == 200


def test_agod_greedy_trace_nonincreasing(sensor10):
    _, _, basis = sensor10
    for K in (2, 4):
        trace = greedy_select("agod", 8, basis=basis, K=K, mu=MU).objective_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_fagod_bordered_objective_direction(sensor10):
    # the bordered-matrix objective drops from the empty set but cannot
    # decrease afterwards: growing the matrix adds a PSD term to every
    # existing inverse diagonal entry
    _, _, basis = sensor10
    T = exact_lowpass(basis, 2)
    sel = greedy_select("fagod", 6, filt=T, mu=MU)
    trace = sel.objective_trace
    assert trace[0] <= 1.0 / MU
    assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


def test_max_diag_chain_inequality():
    # max diag >= geometric mean of diag >= geometric mean of eigenvalues
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(50):
        k = int(rng.integers(2, 8))
        a = rng.normal(size=(k, k))
        c = a @ a.T + 1e-6 * np.eye(k)
        diag = np.diag(c)
        eigs = np.linalg.eigvalsh(c)
        geo_diag = np.exp(np.mean(np.log(diag)))
        geo_eigs = np.exp(np.mean(np.log(np.maximum(eigs, 1e-300))))
        assert diag.max() >= geo_diag * (1 - 1e-10)
        assert geo_diag >= geo_eigs * (1 - 1e-10)


def test_max_diag_difference_inequality():
    rng = np.random.Generator(np.random.PCG64(22))

    def d(mat):
        return np.max(np.diag(mat))

    for _ in range(100):
        k = int(rng.integers(2, 9))
        a = rng.normal(size=(k, k))
        b = rng.normal(size=(k, k))
        a = (a + a.T) / 2
        b = (b + b.T) / 2
        assert -d(b - a) - 1e-12 <= d(a) - d(b) <= d(a - b) + 1e-12


def test_shared_nonzero_spectra():
    rng = np.random.Generator(np.random.PCG64(23))
    basis = _basis(9, 4, 24)
    K = 3
    vk = basis.eigenvectors[:, :K]
    for _ in range(50):
        size = int(rng.integers(1, 9))
        S = rng.choice(9, size=size, replace=False).tolist()
        vsk = vk[S, :]
        small = np.linalg.eigvalsh(vsk.T @ vsk)
        big = np.linalg.eigvalsh(vsk @ vsk.T)
        nz_small = np.sort(small[small > 1e-9])
        nz_big = np.sort(big[big > 1e-9])
        assert len(nz_small) == len(nz_big)
        if len(nz_small):
            assert np.abs(nz_small - nz_big).max() <= 1e-9
