import numpy as np
import pytest

from gsample import (_kernels, approximate_lowpass, build_laplacian,
                     eigendecompose, exact_lowpass, gen_sensor, greedy_jacobi,
                     lowpass_from_givens, rotation_budget)
from gsample.filters import _greedy_jacobi
from gsample.graphs import Laplacian
from gsample.oracle import (apply_rotation, givens_matrix_reference,
                            offdiag_sq_norm)


def test_two_node_path_single_rotation(path2):
    _, lap, _ = path2
    seq, eigs, perm = greedy_jacobi(lap, 1)
    assert seq.count == 1
    assert eigs == pytest.approx([0.0, 2.0], abs=1e-12)
    w = lap.matrix.copy()
    p, q, theta = seq.rotations[0]
    apply_rotation(w, p, q, theta)
    assert w[0, 1] == 0.0 and w[1, 0] == 0.0


def test_diagonal_matrix_stops_immediately():
    # the packed pair of diag(3, 1, 2): no off-diagonal entry to rotate
    seq, eigs, perm = _greedy_jacobi(np.zeros(3), np.array([3.0, 1.0, 2.0]),
                                     10)
    assert seq.count == 0
    assert np.array_equal(eigs, [1.0, 2.0, 3.0])
    assert np.array_equal(perm, [1, 2, 0])


def test_budget_must_be_an_integer():
    lap = build_laplacian(gen_sensor(16, 6, seed=0))
    with pytest.raises(ValueError, match="must be an integer"):
        greedy_jacobi(lap, 2.5)
    with pytest.raises(ValueError, match="nonnegative"):
        greedy_jacobi(lap, -1)
    # numpy integers are integers
    seq, _, _ = greedy_jacobi(lap, np.int64(5))
    assert seq.rotations == greedy_jacobi(lap, 5)[0].rotations


def _never(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize("K,J,match", [
    (0, None, "out of range"), (-2, 5, "out of range"),
    (17, None, "out of range"), (2.5, None, "must be an integer"),
    (4, -1, "nonnegative"), (4, 2.5, "must be an integer"),
    (4, "3", "must be an integer")])
def test_bad_bandwidth_or_budget_raises_before_the_sweep(monkeypatch, K, J,
                                                          match):
    # neither working array of the sweep is written and its kernel never
    # runs
    lap = build_laplacian(gen_sensor(16, 6, seed=0))
    for name in ("packed_upper", "diagonal", "dense"):
        monkeypatch.setattr(Laplacian, name, _never)
    monkeypatch.setattr(_kernels, "greedy_jacobi_sweep", _never)
    with pytest.raises(ValueError, match=match):
        approximate_lowpass(lap, K, J)
    if J is not None and K == 4:
        with pytest.raises(ValueError, match=match):
            greedy_jacobi(lap, J)


def test_rotation_budget_value():
    # ceil(6 * 16 * log10(16)) = ceil(115.59...)
    assert rotation_budget(16) == 116


def test_replay_confirms_greedy_pair_choice_and_energy_drop():
    lap = build_laplacian(gen_sensor(16, 6, seed=0))
    J = rotation_budget(16)
    seq, _, _ = greedy_jacobi(lap, J)
    w = lap.matrix.copy()
    scale = max(1.0, offdiag_sq_norm(w))
    for p, q, theta in seq.rotations:
        # recorded pair must be the largest |off-diagonal| entry,
        # ties broken by smallest row then column
        upper = np.abs(np.triu(w, k=1))
        flat = int(np.argmax(upper))
        exp_p, exp_q = divmod(flat, 16)
        assert (p, q) == (exp_p, exp_q)
        before = offdiag_sq_norm(w)
        target_sq = 2.0 * w[p, q] ** 2
        apply_rotation(w, p, q, theta)
        after = offdiag_sq_norm(w)
        assert abs((before - after) - target_sq) <= 1e-10 * scale
        assert after <= before


def test_rotation_product_is_orthogonal():
    lap = build_laplacian(gen_sensor(12, 5, seed=3))
    seq, _, _ = greedy_jacobi(lap, 60)
    q = seq.low_frequency(np.arange(12), 12)
    assert np.abs(q.T @ q - np.eye(12)).max() <= 1e-9


def test_full_diagonalization_matches_dense_eigenvalues():
    lap = build_laplacian(gen_sensor(10, 4, seed=9))
    seq, eigs, _ = greedy_jacobi(lap, 10_000)
    exact = np.linalg.eigvalsh(lap.matrix)
    assert eigs == pytest.approx(exact, abs=1e-8)
    # the budgeted run must already have shrunk the off-diagonal energy
    budget_seq, _, _ = greedy_jacobi(lap, rotation_budget(10))
    w = lap.matrix.copy()
    for p, q, theta in budget_seq.rotations:
        apply_rotation(w, p, q, theta)
    assert offdiag_sq_norm(w) < offdiag_sq_norm(lap.matrix)


def test_lowpass_two_node_closed_form(path2):
    _, lap, _ = path2
    seq, eigs, perm = greedy_jacobi(lap, 1)
    filt = lowpass_from_givens(seq, perm, 1, approx_eigs=eigs)
    assert filt.filter == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)


@pytest.mark.parametrize("K", [1, 4, 9])
def test_approx_filter_invariants(K):
    lap = build_laplacian(gen_sensor(9, 4, seed=21))
    seq, eigs, perm = greedy_jacobi(lap, 40)
    filt = lowpass_from_givens(seq, perm, K, approx_eigs=eigs)
    T = filt.filter
    assert np.abs(T - T.T).max() <= 1e-12
    assert abs(np.trace(T) - K) <= 1e-9
    spec = np.linalg.eigvalsh(T)
    assert spec.min() >= -1e-9 and spec.max() <= 1 + 1e-9


def test_approx_error_no_worse_than_no_rotations():
    lap = build_laplacian(gen_sensor(16, 6, seed=2))
    basis = eigendecompose(lap)
    K = 4
    exact = exact_lowpass(basis, K)

    def err(J):
        seq, eigs, perm = greedy_jacobi(lap, J)
        return np.linalg.norm(
            lowpass_from_givens(seq, perm, K, approx_eigs=eigs).filter - exact,
            "fro")

    assert err(rotation_budget(16)) <= err(0)


def test_mean_error_nonincreasing_as_budget_doubles():
    K = 4
    budgets = [29, 58, 116, 232]
    means = []
    for J in budgets:
        errs = []
        for seed in range(5):
            lap = build_laplacian(gen_sensor(16, 6, seed=seed))
            exact = exact_lowpass(eigendecompose(lap), K)
            seq, eigs, perm = greedy_jacobi(lap, J)
            filt = lowpass_from_givens(seq, perm, K, approx_eigs=eigs)
            errs.append(np.linalg.norm(filt.filter - exact, "fro"))
        means.append(np.mean(errs))
    assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))


def test_exact_lowpass_properties(sensor10):
    _, _, basis = sensor10
    assert np.abs(exact_lowpass(basis, 10) - np.eye(10)).max() <= 1e-10
    assert exact_lowpass(basis, 1) == pytest.approx(np.full((10, 10), 0.1),
                                                    abs=1e-10)
    for K in (2, 5, 8):
        T = exact_lowpass(basis, K)
        assert np.linalg.norm(T @ T - T, "fro") <= 1e-9
        assert abs(np.trace(T) - K) <= 1e-9


def _model_graph(model, n, seed):
    from gsample import gen_community, gen_er
    if model == "G1":
        return gen_sensor(n, min(6, n - 1), seed)
    if model == "G2":
        return gen_er(n, min(1.0, 8.0 / n), seed)
    return gen_community(n, seed)


# the community model needs n >= 8, so G3 starts at n = 16
@pytest.mark.parametrize("model,n,K", [("G1", 2, 1), ("G2", 2, 2),
                                       ("G1", 16, 4), ("G2", 16, 5),
                                       ("G3", 16, 3), ("G1", 200, 10),
                                       ("G2", 200, 10), ("G3", 200, 40)])
def test_factor_matches_dense_rotation_product(model, n, K):
    lap = build_laplacian(_model_graph(model, n, seed=n + K))
    for J in (0, 1, rotation_budget(n)):
        seq, eigs, perm = greedy_jacobi(lap, J)
        filt = lowpass_from_givens(seq, perm, K, approx_eigs=eigs)
        dense = givens_matrix_reference(n, seq.rotations)[:, perm[:K]]
        assert filt.factor.shape == (n, K)
        assert np.abs(filt.factor - dense).max() <= 1e-13
        assert np.abs(filt.filter - dense @ dense.T).max() <= 1e-13
        if J == 0:
            # no rotations: exactly the identity columns perm[:K]
            assert np.array_equal(filt.factor, np.eye(n)[:, perm[:K]])


def test_factor_is_read_only_and_filter_is_its_outer_product():
    lap = build_laplacian(gen_sensor(12, 4, seed=1))
    seq, eigs, perm = greedy_jacobi(lap, 30)
    filt = lowpass_from_givens(seq, perm, 3, approx_eigs=eigs)
    assert filt.factor.shape[0] == 12 and filt.bandwidth == 3
    with pytest.raises(ValueError):
        filt.factor[0, 0] = 1.0
    assert np.array_equal(filt.filter, filt.factor @ filt.factor.T)
