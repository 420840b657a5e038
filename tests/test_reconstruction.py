import numpy as np
import pytest

from gsample import (approximate_lowpass, biased_reconstruct,
                     blue_reconstruct, build_laplacian, eigendecompose,
                     exact_lowpass, filter_reconstruct, gen_sensor,
                     gen_signal, observe, rmse, snr_to_sigma2)
from gsample.reconstruction import _loaded_system, loaded_rmses

MU = 1 / 99


def _instance(n=12, K=4, seed=0):
    basis = eigendecompose(build_laplacian(gen_sensor(n, 5, seed=seed)))
    signal = gen_signal("GS1", basis, seed=seed + 1, bandwidth=K)
    return basis, signal


def test_blue_exact_on_noiseless_bandlimited():
    basis, signal = _instance()
    idx = [0, 3, 5, 9]  # |S| = K = 4
    obs = observe(signal, idx, 0.0)
    rec = blue_reconstruct(obs, basis, 4)
    assert np.abs(rec.values - signal.values).max() <= 1e-9


def test_blue_exact_with_all_nodes():
    basis, signal = _instance(seed=2)
    obs = observe(signal, range(12), 0.0)
    rec = blue_reconstruct(obs, basis, 4)
    assert np.abs(rec.values - signal.values).max() <= 1e-9


def test_blue_matches_normal_equations_oracle():
    basis, signal = _instance(n=8, K=3, seed=3)
    idx = [0, 2, 4, 5, 7]
    obs = observe(signal, idx, 5e-3, seed=9)
    vsk = basis.eigenvectors[idx, :3]
    xhat = np.linalg.solve(vsk.T @ vsk, vsk.T @ obs.values)
    expected = basis.eigenvectors[:, :3] @ xhat
    rec = blue_reconstruct(obs, basis, 3)
    assert np.abs(rec.values - expected).max() <= 1e-9


def test_blue_rejects_rank_deficiency():
    basis, signal = _instance()
    obs = observe(signal, [0, 1], 0.0)  # |S| < K
    with pytest.raises(ValueError, match="rank deficient"):
        blue_reconstruct(obs, basis, 4)


def test_biased_converges_to_blue():
    basis, signal = _instance(seed=4)
    idx = [1, 2, 6, 8, 10]
    obs = observe(signal, idx, 5e-3, seed=1)
    blue = blue_reconstruct(obs, basis, 4)
    biased = biased_reconstruct(obs, basis, 4, 1e-10)
    assert np.linalg.norm(biased.values - blue.values) <= 1e-6


def test_biased_zero_observation():
    basis, signal = _instance(seed=5)
    obs = observe(signal, [0, 4], 0.0)
    zero_obs = type(obs)(obs.sample_indices, np.zeros(2))
    rec = biased_reconstruct(zero_obs, basis, 4, MU)
    assert np.array_equal(rec.values, np.zeros(12))


def test_biased_matches_dense_formula():
    basis, signal = _instance(n=8, K=3, seed=6)
    idx = [1, 3, 6]
    obs = observe(signal, idx, 5e-3, seed=2)
    vk = basis.eigenvectors[:, :3]
    vsk = vk[idx, :]
    expected = vk @ np.linalg.inv(vsk.T @ vsk + MU * np.eye(3)) @ vsk.T @ obs.values
    rec = biased_reconstruct(obs, basis, 3, MU)
    assert np.abs(rec.values - expected).max() <= 1e-10


def test_push_through_identity_and_filter_equivalence():
    basis, signal = _instance(n=8, K=3, seed=7)
    vk = basis.eigenvectors[:, :3]
    for trial in range(10):
        rng = np.random.Generator(np.random.PCG64(trial))
        size = int(rng.integers(1, 8))
        idx = rng.choice(8, size=size, replace=False).tolist()
        vsk = vk[idx, :]
        lhs = np.linalg.solve(vsk.T @ vsk + MU * np.eye(3), vsk.T)
        rhs = vsk.T @ np.linalg.inv(vsk @ vsk.T + MU * np.eye(size))
        assert np.abs(lhs - rhs).max() <= 1e-9
        obs = observe(signal, idx, 5e-3, seed=trial)
        a = biased_reconstruct(obs, basis, 3, MU)
        b = filter_reconstruct(obs, exact_lowpass(basis, 3), MU)
        assert np.abs(a.values - b.values).max() <= 1e-9


def test_factored_filter_reconstruct_matches_dense():
    for seed, (n, K) in enumerate(((12, 4), (60, 6), (200, 10))):
        lap = build_laplacian(gen_sensor(n, 5, seed=seed))
        signal = gen_signal("GS1", eigendecompose(lap), seed=seed + 1,
                            bandwidth=K)
        filt = approximate_lowpass(lap, K)
        rng = np.random.Generator(np.random.PCG64(seed))
        for size in (1, K, 3 * K):
            idx = rng.choice(n, size=size, replace=False).tolist()
            obs = observe(signal, idx, 5e-3, seed=size)
            fast = filter_reconstruct(obs, filt, MU)
            dense = filter_reconstruct(obs, filt.filter, MU)
            assert np.abs(fast.values - dense.values).max() <= 1e-12


@pytest.mark.parametrize("K", [2, 4, 10, 20, 40])
def test_loaded_rmses_are_the_per_row_estimates_bit_for_bit(K):
    # rows on the Givens factor and on V_K, one to 3K samples each,
    # against filter_reconstruct and biased_reconstruct row by row
    n = 200
    lap = build_laplacian(gen_sensor(n, 6, seed=K))
    basis = eigendecompose(lap, K)
    signal = gen_signal("GS1", basis, seed=K + 1, bandwidth=K)
    filt = approximate_lowpass(lap, K)
    rng = np.random.Generator(np.random.PCG64(K))
    factors, grams, rhs, want = [], [], [], []
    for r in range(30):
        idx = rng.choice(n, size=int(rng.integers(1, 3 * K + 1)),
                         replace=False).tolist()
        obs = observe(signal, idx, 5e-3, seed=r)
        if r % 2:
            factor = filt.factor
            rec = filter_reconstruct(obs, filt, MU)
        else:
            factor = basis.low_frequency(K)
            rec = biased_reconstruct(obs, basis, K, MU)
        gram, c = _loaded_system(factor, idx, obs.values, MU)
        factors.append(factor)
        grams.append(gram)
        rhs.append(c)
        want.append(rmse(rec.values, signal.values))
    got = loaded_rmses(factors, grams, rhs, signal.values)
    assert [repr(v) for v in got.tolist()] == [repr(v) for v in want]


def test_loaded_rmses_reject_a_non_finite_estimate():
    basis, signal = _instance()
    vk = basis.low_frequency(4)
    rows = [_loaded_system(vk, [0, 3], np.array([1.0, 2.0]), MU),
            _loaded_system(vk, [1, 2], np.array([np.inf, 0.0]), MU)]
    with pytest.raises(ValueError, match="non-finite"):
        loaded_rmses([vk, vk], [z for z, _ in rows], [c for _, c in rows],
                     signal.values)


def test_filter_reconstruct_identity_filter():
    basis, signal = _instance(seed=8)
    idx = [2, 5, 7]
    obs = observe(signal, idx, 0.0)
    rec = filter_reconstruct(obs, np.eye(12), MU)
    expected = np.zeros(12)
    expected[idx] = obs.values / (1.0 + MU)
    assert np.abs(rec.values - expected).max() <= 1e-12


def test_filter_reconstruct_zero_observation():
    basis, signal = _instance(seed=9)
    obs = observe(signal, [0, 1, 2], 0.0)
    zero_obs = type(obs)(obs.sample_indices, np.zeros(3))
    rec = filter_reconstruct(zero_obs, exact_lowpass(basis, 4), MU)
    assert np.array_equal(rec.values, np.zeros(12))


def test_bias_shrinks_as_loading_vanishes():
    basis, signal = _instance(seed=11)
    idx = [0, 1, 4, 6, 8, 11]
    obs = observe(signal, idx, 0.0)
    errors = []
    for mu in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        rec = biased_reconstruct(obs, basis, 4, mu)
        errors.append(np.linalg.norm(rec.values - signal.values))
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


def test_rmse_values():
    x = np.array([1.0, 2.0, 3.0])
    assert rmse(x, x) == 0.0
    assert rmse(x + 0.5, x) == pytest.approx(0.5, abs=1e-15)
    rng = np.random.Generator(np.random.PCG64(1))
    a, b = rng.normal(size=20), rng.normal(size=20)
    assert rmse(a, b) == pytest.approx(
        np.sqrt(np.sum((a - b) ** 2) / 20), rel=1e-12)
    with pytest.raises(ValueError):
        rmse(a, b[:10])


def test_snr_to_sigma2():
    assert snr_to_sigma2(0) == pytest.approx(0.5, abs=1e-15)
    assert snr_to_sigma2(20) == pytest.approx(5e-3, rel=1e-12)
    assert snr_to_sigma2(10) == pytest.approx(0.05, rel=1e-12)
