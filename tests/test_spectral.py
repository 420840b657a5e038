import math
import re
import types

import numpy as np
import pytest
import scipy.linalg

from conftest import graph_from_adjacency
from gsample import (Graph, build_laplacian, eigendecompose, gen_community,
                     gen_er, gen_sensor, gen_signal, gft, igft, greedy_jacobi,
                     leverage_scores, observe)
from gsample import spectral
from gsample.graphs import Laplacian
from gsample.spectral import SIGN_TOL, _fix_signs, check_gap


def test_two_node_path_closed_form(path2):
    _, _, basis = path2
    assert basis.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)
    s = 1 / math.sqrt(2)
    assert basis.eigenvectors[:, 0] == pytest.approx([s, s], abs=1e-12)


def test_complete_graph_spectrum():
    g = graph_from_adjacency(np.ones((3, 3)) - np.eye(3))
    basis = eigendecompose(build_laplacian(g))
    assert basis.eigenvalues == pytest.approx([0.0, 3.0, 3.0], abs=1e-10)


def test_residual_and_orthonormality():
    g = gen_sensor(6, 3, seed=1)
    lap = build_laplacian(g)
    basis = eigendecompose(lap)
    v, lam = basis.eigenvectors, basis.eigenvalues
    residual = np.linalg.norm(lap.matrix @ v - v * lam, "fro")
    assert residual <= 1e-9 * np.linalg.norm(lap.matrix, "fro")
    assert np.abs(v.T @ v - np.eye(6)).max() <= 1e-10
    assert lam[0] >= -1e-10
    assert np.all(np.diff(lam) >= 0)


def test_sign_convention_and_determinism(sensor8):
    _, lap, basis = sensor8
    for k in range(basis.n):
        col = basis.eigenvectors[:, k]
        lead = col[np.abs(col) > 1e-12][0]
        assert lead > 0
    again = eigendecompose(lap)
    assert np.array_equal(again.eigenvectors, basis.eigenvectors)
    assert np.array_equal(again.eigenvalues, basis.eigenvalues)


def test_connected_graph_has_simple_zero_eigenvalue(sensor10):
    _, _, basis = sensor10
    assert abs(basis.eigenvalues[0]) <= 1e-10
    assert basis.eigenvalues[1] > 1e-8


def test_gft_of_eigenvector_is_unit_coordinate(sensor8):
    _, _, basis = sensor8
    xhat = gft(basis, basis.eigenvectors[:, 0])
    expected = np.zeros(8)
    expected[0] = 1.0
    assert xhat == pytest.approx(expected, abs=1e-12)


def test_constant_signal_is_pure_dc(sensor8):
    _, _, basis = sensor8
    xhat = gft(basis, np.ones(8))
    assert np.abs(xhat[1:]).max() <= 1e-10


def test_gft_round_trip_and_parseval(sensor10):
    _, _, basis = sensor10
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(5):
        x = rng.normal(size=10)
        assert np.abs(igft(basis, gft(basis, x)) - x).max() <= 1e-10
        assert np.linalg.norm(gft(basis, x)) == pytest.approx(
            np.linalg.norm(x), abs=1e-10)
    with pytest.raises(ValueError):
        gft(basis, np.ones(7))
    with pytest.raises(ValueError):
        igft(basis, np.ones(7))


def test_signal_models_bandlimits():
    g = gen_er(45, 0.2, seed=8)
    basis = eigendecompose(build_laplacian(g))
    s1 = gen_signal("GS1", basis, seed=0)
    assert np.all(s1.spectrum[10:] == 0.0)
    assert s1.bandwidth == 10
    s3 = gen_signal("GS3", basis, seed=0)
    assert np.all(s3.spectrum[40:] == 0.0)
    assert s3.bandwidth == 40
    s2 = gen_signal("GS2", basis, seed=0)
    assert np.all(s2.spectrum[10:] != 0.0)
    # synthesis consistency
    assert np.abs(s1.values - basis.eigenvectors @ s1.spectrum).max() <= 1e-12
    with pytest.raises(ValueError):
        gen_signal("GS9", basis, seed=0)


def test_signal_bandwidth_override(sensor8):
    _, _, basis = sensor8
    s = gen_signal("GS1", basis, seed=1, bandwidth=3)
    assert s.bandwidth == 3
    assert np.all(s.spectrum[3:] == 0.0)


@pytest.mark.parametrize("bandwidth", [2.5, 3.0, "3"])
def test_signal_bandwidth_must_be_an_integer(sensor8, bandwidth):
    # as at every other bandwidth entry point: 2.5 used to draw a
    # 2-bandlimited signal, and "3" a 3-bandlimited one
    _, _, basis = sensor8
    with pytest.raises(ValueError, match="bandwidth must be an integer, got "
                       + re.escape(repr(bandwidth))):
        gen_signal("GS1", basis, seed=1, bandwidth=bandwidth)


def test_signal_coefficient_variance():
    # Monte Carlo check that the in-band coefficients have variance 0.5
    g = gen_sensor(12, 4, seed=0)
    basis = eigendecompose(build_laplacian(g))
    draws = np.array([gen_signal("GS1", basis, seed=s).spectrum[0]
                      for s in range(10000)])
    assert 0.45 <= draws.var(ddof=1) <= 0.55


def test_signal_determinism(sensor8):
    _, _, basis = sensor8
    a = gen_signal("GS2", basis, seed=77, bandwidth=5)
    b = gen_signal("GS2", basis, seed=77, bandwidth=5)
    assert np.array_equal(a.values, b.values)


def test_observe_noiseless_and_noisy(sensor10):
    _, _, basis = sensor10
    sig = gen_signal("GS1", basis, seed=2, bandwidth=4)
    idx = [3, 0, 7]
    clean = observe(sig, idx, 0.0)
    assert np.array_equal(clean.values, sig.values[idx])
    assert clean.sample_indices == (3, 0, 7)
    noisy1 = observe(sig, idx, 5e-3, seed=4)
    noisy2 = observe(sig, idx, 5e-3, seed=4)
    assert np.array_equal(noisy1.values, noisy2.values)
    assert np.any(noisy1.values != clean.values)
    with pytest.raises(ValueError):
        observe(sig, [1, 1], 0.0)
    with pytest.raises(ValueError):
        observe(sig, [99], 0.0)


def test_leverage_scores(path2, sensor10):
    _, _, b2 = path2
    assert leverage_scores(b2, 1) == pytest.approx([0.5, 0.5], abs=1e-12)
    _, _, b10 = sensor10
    assert leverage_scores(b10, 10) == pytest.approx(np.full(10, 0.1), abs=1e-12)
    for K in (1, 3, 7):
        assert abs(leverage_scores(b10, K).sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# truncated bases: the K lowest eigenpairs only

def _model_graph(model, n, seed):
    if model == "G1":
        return gen_sensor(n, min(6, n - 1), seed)
    if model == "G2":
        return gen_er(n, min(1.0, 8.0 / n), seed)
    return gen_community(n, seed)


def _cycle(n):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return graph_from_adjacency(adj)


# the community model needs n >= 8, so G3 starts at n = 16
@pytest.mark.parametrize("model,n,K", [("G1", 2, 1), ("G2", 2, 1),
                                       ("G1", 16, 4), ("G2", 16, 5),
                                       ("G3", 16, 3), ("G1", 200, 10),
                                       ("G2", 200, 10), ("G3", 200, 40)])
def test_truncated_basis_matches_sliced_full_basis(model, n, K):
    lap = build_laplacian(_model_graph(model, n, seed=n + K))
    full = eigendecompose(lap)
    part = eigendecompose(lap, K)
    vk = full.eigenvectors[:, :K]
    assert part.width == K and part.n == n
    assert part.eigenvectors.shape == (n, K)
    assert np.abs(part.eigenvalues - full.eigenvalues[:K]).max() <= 1e-12
    proj = part.eigenvectors @ part.eigenvectors.T
    assert np.abs(proj - vk @ vk.T).max() <= 1e-12
    # same sign convention: every column points the way its full-basis twin does
    assert np.all(np.einsum("ij,ij->j", part.eigenvectors, vk) > 0.5)
    assert np.array_equal(part.low_frequency(K), part.eigenvectors)


@pytest.mark.parametrize("K", [8, 9, 50])
def test_bandwidth_at_or_past_n_takes_the_dense_path(K):
    lap = build_laplacian(gen_sensor(8, 5, seed=11))
    full, again = eigendecompose(lap), eigendecompose(lap, K)
    assert again.width == 8
    assert again.eigenvalues.tobytes() == full.eigenvalues.tobytes()
    assert again.eigenvectors.tobytes() == full.eigenvectors.tobytes()


@pytest.mark.parametrize("entry", ["row sum"])
def test_subset_solve_rejects_non_finite_laplacian(entry):
    # weights of 1e308 are finite, but node 1's row sum overflows to an
    # infinite diagonal: the one way a graph gives a non-finite
    # Laplacian, caught as each consumer writes its array
    lap = build_laplacian(Graph(3, [0, 1], [1, 2], [1e308, 1e308]))
    for consume in (lambda: eigendecompose(lap, 1),
                    lambda: eigendecompose(lap), lambda: greedy_jacobi(lap, 5)):
        with pytest.raises(ValueError, match="non-finite"):
            consume()


def test_degenerate_bandwidth_fails_loudly():
    # the 8-cycle's spectrum is 2 - 2 cos(2 pi k / 8): lambda_2 = lambda_3
    lap = build_laplacian(_cycle(8))
    with pytest.raises(ValueError, match=r"n=8, K=2.*0\.585.*0\.585"):
        eigendecompose(lap, 2)
    basis = eigendecompose(lap, 3)
    assert basis.eigenvalues == pytest.approx(
        [0.0, 2 - math.sqrt(2), 2 - math.sqrt(2)], abs=1e-12)
    with pytest.raises(ValueError, match="at least 1"):
        eigendecompose(lap, 0)
    # the same rule on the full basis, wherever it holds lambda_K+1
    full = eigendecompose(lap).eigenvalues
    with pytest.raises(ValueError, match=r"n=8, K=2.*0\.585.*0\.585"):
        check_gap(full, 2, 8)
    for K in (1, 3, 8):
        check_gap(full, K, 8)
    check_gap(basis.eigenvalues, 3, 8)


def test_truncated_basis_refuses_what_it_does_not_hold():
    lap = build_laplacian(gen_sensor(12, 4, seed=0))
    part = eigendecompose(lap, 4)
    assert part.low_frequency(3).shape == (12, 3)
    with pytest.raises(ValueError, match="K=5 exceeds the 4 eigenvectors"):
        part.low_frequency(5)
    with pytest.raises(ValueError, match="gft needs the full basis"):
        gft(part, np.ones(12))
    with pytest.raises(ValueError, match="igft needs the full basis"):
        igft(part, np.ones(12))
    with pytest.raises(ValueError, match="K=5 exceeds"):
        leverage_scores(part, 5)


@pytest.mark.parametrize("model,bandwidth", [("GS1", None), ("GS1", 3),
                                             ("GS3", None)])
def test_signal_from_a_truncated_basis(model, bandwidth):
    lap = build_laplacian(gen_sensor(60, 6, seed=3))
    full = eigendecompose(lap)
    K = bandwidth or (10 if model == "GS1" else 40)
    ref = gen_signal(model, full, seed=9, bandwidth=bandwidth)
    for width in (K, K + 5):
        part = eigendecompose(lap, width)
        sig = gen_signal(model, part, seed=9, bandwidth=bandwidth)
        assert sig.spectrum.tobytes() == ref.spectrum.tobytes()
        assert sig.bandwidth == ref.bandwidth
        assert np.abs(sig.values - ref.values).max() <= 1e-12
    narrow = eigendecompose(lap, K - 1)
    with pytest.raises(ValueError, match=f"needs {K} eigenvectors"):
        gen_signal(model, narrow, seed=9, bandwidth=bandwidth)


def test_tail_signal_needs_the_full_basis():
    lap = build_laplacian(gen_sensor(30, 6, seed=3))
    with pytest.raises(ValueError, match="needs 30 eigenvectors"):
        gen_signal("GS2", eigendecompose(lap, 29), seed=0)
    assert gen_signal("GS2", eigendecompose(lap), seed=0).n == 30


def _solved_on_the_libraries_copy(a, K):
    """The basis as numpy's and scipy's own copies of a give it."""
    if K is None:
        w, v = np.linalg.eigh(a)
        return w, _fix_signs(v)
    w, v = scipy.linalg.eigh(a, subset_by_index=[0, K], driver="evr",
                             check_finite=False)
    return w[:K], _fix_signs(v[:, :K].copy())


@pytest.mark.parametrize("n", [200, 800])
@pytest.mark.parametrize("model", ["G1", "G2", "G3"])
def test_solver_copy_gives_the_basis_of_the_librarys_copy(model, n):
    # the subset solver works in the Laplacian's own array read as
    # F-ordered; the full solve works on numpy's copy.  K = n - 1 asks
    # dsyevr for all n pairs (il = 1, iu = n), its branch that also
    # writes ISUPPZ
    lap = build_laplacian(_model_graph(model, n, seed=n + 1))
    a = lap.matrix
    before = a.tobytes()
    for K in (n // 20, n - 1, None):
        w, v = _solved_on_the_libraries_copy(a, K)
        basis = eigendecompose(lap, K)
        assert basis.eigenvalues.tobytes() == w.tobytes()
        assert basis.eigenvectors.tobytes() == v.tobytes()
    assert a.tobytes() == before and not a.flags.writeable


def _never(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize("K", [0, -3, 2.5, 3.0, 8.5])
def test_bad_bandwidth_raises_before_the_solve(monkeypatch, K):
    # no dense array of L is written and neither solver runs
    lap = build_laplacian(gen_sensor(8, 5, seed=11))
    monkeypatch.setattr(Laplacian, "dense", _never)
    monkeypatch.setattr(np.linalg, "eigh", _never)
    monkeypatch.setattr(spectral, "_flapack", types.SimpleNamespace(
        dsyevr_lwork=_never, dsyevr=_never))
    with pytest.raises(ValueError, match="bandwidth"):
        eigendecompose(lap, K)


def _fix_signs_reference(v):
    """v with each column negated whose first entry above SIGN_TOL in
    magnitude, or first entry when it has none, is negative."""
    out = v.copy()
    for j in range(v.shape[1]):
        big = np.flatnonzero(np.abs(v[:, j]) > SIGN_TOL)
        if v[big[0] if len(big) else 0, j] < 0:
            out[:, j] *= -1.0
    return out


def test_sign_fix_of_edge_columns():
    # leading entries at or below SIGN_TOL, an all-tiny column, -0.0 and
    # NaN in the first row, beside columns whose first entry decides
    tol = SIGN_TOL
    columns = [
        [tol / 10, -tol / 2, 0.0, -0.3, 0.2],  # flipped by -0.3
        [-tol / 10, 0.0, 0.4, -0.1, 0.0],      # kept by 0.4
        [-tol / 10, tol / 2, 0.0, -tol, 0.0],  # all tiny: its first entry
        [tol / 10, -tol / 2, 0.0, tol, -0.0],  # all tiny, first positive
        [-0.0, -0.5, 0.1, 0.2, 0.3],           # flipped by -0.5
        [-0.0, 0.0, -0.0, 0.0, -0.0],          # nothing to flip by
        [np.nan, -0.5, 0.1, 0.2, 0.3],         # NaN is not significant
        [np.nan, 0.5, -0.1, 0.2, 0.3],
        [tol, -tol, -0.25, 0.5, 0.0],          # SIGN_TOL itself is tiny
        [-0.7, 0.1, 0.2, 0.3, 0.4],
        [0.7, -0.1, -0.2, -0.3, -0.4],
    ]
    v = np.array(columns).T.copy()
    expected = _fix_signs_reference(v)
    assert _fix_signs(v) is v
    assert v.tobytes() == expected.tobytes()
    flipped = [j for j in range(v.shape[1]) if np.signbit(v[1, j])
               != np.signbit(np.array(columns[j][1]))]
    assert flipped == [0, 2, 4, 6, 8, 9]


@pytest.mark.parametrize("model", ["G1", "G2", "G3"])
def test_sign_fix_of_a_full_basis_is_the_reference(model):
    lap = build_laplacian(_model_graph(model, 200, seed=3))
    _, v = np.linalg.eigh(lap.dense())
    expected = _fix_signs_reference(v)
    assert _fix_signs(v).tobytes() == expected.tobytes()
