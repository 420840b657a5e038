"""Signal recovery from node samples, plus the error metrics used throughout.

Three estimators are provided: the unbiased pseudo-inverse solution
(BLUE), a diagonally loaded biased variant defined for any sample count,
and a filter-domain form of the biased estimate that works directly on a
low-pass filter matrix, so it needs no eigendecomposition when that
matrix is the Givens approximation.  `loaded_rmses` solves many loaded
estimates at once and scores them, bit for bit as the per-row functions
do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import ApproxFilter
from .oracle import _check_mu
from .selection import RANK_TOL
from .spectral import SIGNAL_VARIANCE, Observation, SpectralBasis


@dataclass(frozen=True)
class Reconstruction:
    """Recovered full-length signal."""

    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("reconstruction contains non-finite values")
        x.setflags(write=False)
        object.__setattr__(self, "values", x)


def blue_reconstruct(obs: Observation, basis: SpectralBasis, K: int) -> Reconstruction:
    """Unbiased estimate via the pseudo-inverse of the sampled rows.

    Requires rank(V_SK) = K (so at least K samples).  Solved through the
    SVD with a relative rank cutoff rather than normal equations.
    """
    vk = basis.low_frequency(K)
    vsk = vk[list(obs.sample_indices), :]
    u, s, vt = np.linalg.svd(vsk, full_matrices=False)
    if s.size < K or s[-1] <= RANK_TOL * s[0]:
        raise ValueError(
            f"sampled eigenvector rows are rank deficient ({len(obs.sample_indices)} "
            f"samples, bandwidth {K})")
    xhat = vt.T @ ((u.T @ obs.values) / s)
    return Reconstruction(vk @ xhat)


def _loaded_system(vk: np.ndarray, rows, y: np.ndarray, loading: np.ndarray):
    """V_S^T V_S + mu I and V_S^T y for an n x K factor V, the sample rows
    S (an int array or a list) and the K x K loading mu I, which a caller
    with many rows builds once.  The loading is added as a matrix, not
    to the diagonal in place, so the Gram's bytes are those of
    `vsk.T @ vsk + mu * np.eye(K)`: an off-diagonal -0.0 becomes +0.0."""
    vsk = vk.take(rows, axis=0)
    return vsk.T @ vsk + loading, vsk.T @ y


def _loaded_solve(vk: np.ndarray, obs: Observation, mu: float) -> Reconstruction:
    # V (V_S^T V_S + mu I)^-1 V_S^T y for an n x K factor V
    z, c = _loaded_system(vk, list(obs.sample_indices), obs.values,
                          mu * np.eye(vk.shape[1]))
    return Reconstruction(vk @ np.linalg.solve(z, c))


def loaded_rmses(factors, grams, rhs, x_star: np.ndarray) -> np.ndarray:
    """RMSE against x_star of the loaded estimate x_r = V_r Z_r^-1 c_r of
    each row r, from its n x K factor V_r, its loaded Gram Z_r = V_S^T V_S
    + mu I and c_r = V_S^T y (one K for every row).

    Row r's value is `rmse(_loaded_solve(...).values, x_star)` bit for
    bit: the Grams are solved in one stacked call, which runs the same
    LAPACK solve on each of them, but each x_r is its own matrix-vector
    product, since one stacked product rounds differently from the
    per-row one.  Raises ValueError when an x_r is not finite, as
    `Reconstruction` does, or when an RMSE overflows, and LinAlgError
    when a Gram is singular.
    """
    solutions = np.linalg.solve(np.stack(grams), np.stack(rhs)[..., None])
    x = np.empty((len(factors), len(x_star)))
    for r, factor in enumerate(factors):
        np.matmul(factor, solutions[r, :, 0], out=x[r])
    if not np.all(np.isfinite(x)):
        raise ValueError("reconstruction contains non-finite values")
    values = np.sqrt(np.mean((x - x_star) ** 2, axis=1))
    if not np.all(np.isfinite(values)):
        raise ValueError("RMSE is not finite")
    return values


def biased_reconstruct(obs: Observation, basis: SpectralBasis, K: int,
                       mu: float) -> Reconstruction:
    """Diagonally loaded estimate V_K (V_SK^T V_SK + mu I)^-1 V_SK^T y.

    Defined for any nonempty sample set; converges to the unbiased
    estimate as mu -> 0 on full-rank instances.
    """
    _check_mu(mu)
    return _loaded_solve(basis.low_frequency(K), obs, mu)


def filter_reconstruct(obs: Observation, filt, mu: float) -> Reconstruction:
    """Filter-domain biased estimate x = T_{:,S} (T_SS + mu I)^-1 y.

    For T = V V^T the push-through identity gives x = V (V_S^T V_S +
    mu I)^-1 V_S^T y from the n x K factor V: an `ApproxFilter` is solved
    that way, without forming T, and for the exact filter V_K V_K^T it is
    `biased_reconstruct`, which the runner uses for fagod-exact.  A dense
    filter matrix `filt` is solved as written, as a reference.
    """
    _check_mu(mu)
    if isinstance(filt, ApproxFilter):
        return _loaded_solve(filt.factor, obs, mu)
    T = np.asarray(filt, dtype=float)
    idx = list(obs.sample_indices)
    tss = T[np.ix_(idx, idx)] + mu * np.eye(len(idx))
    return Reconstruction(T[:, idx] @ np.linalg.solve(tss, obs.values))


def rmse(x_star: np.ndarray, x: np.ndarray) -> float:
    """Root mean square error sqrt(||x* - x||^2 / n)."""
    x_star = np.asarray(x_star, dtype=float)
    x = np.asarray(x, dtype=float)
    if x_star.shape != x.shape:
        raise ValueError("signals must have the same length")
    return float(np.sqrt(np.mean((x_star - x) ** 2)))


def snr_to_sigma2(snr_db: float) -> float:
    """Noise variance for a target SNR in dB against the signal models'
    coefficient variance, `SIGNAL_VARIANCE`."""
    return SIGNAL_VARIANCE * 10.0 ** (-snr_db / 10.0)
