"""Laplacian eigenbasis, graph Fourier transform, and signal/noise models.

The truncated eigensolve is LAPACK's subset `dsyevr`, called through
scipy's f2py wrapper of it in the extension `scipy.linalg._flapack`,
which this module loads on its own at import (`_load_flapack`).
Importing `scipy.linalg` costs a fresh process a few tenths of a second,
since it pulls in much of scipy and `numpy.f2py`, more than a small
run's solves take; the extension alone loads in milliseconds.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from .graphs import Laplacian
from .rng import rng_from


def _load_flapack():
    """scipy's `scipy.linalg._flapack`: the loaded one, else one loaded
    from its file and kept out of `sys.modules`.  The interpreter lists a
    single-phase extension there as it creates it, which would stop a
    later `import scipy.linalg` from setting the package's `_flapack`;
    that import instead builds the module again from the interpreter's
    copy of this one, with the very same routines."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    spec = None if scipy is None else importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(d, "linalg")
               for d in scipy.submodule_search_locations])
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


_flapack = _load_flapack()

# Entries smaller than this are ignored when fixing eigenvector signs.
SIGN_TOL = 1e-12

# Relative spectral gap at the bandwidth below which V_K is not unique.
GAP_TOL = 1e-8

# Variance of a signal's in-band coefficients, in every model.
SIGNAL_VARIANCE = 0.5

# (default bandwidth, variance of the out-of-band coefficients or None)
SIGNAL_MODELS = {
    "GS1": (10, None),
    "GS2": (10, 5e-3),
    "GS3": (40, None),
}


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Laplacian.

    Column k of `eigenvectors` pairs with `eigenvalues[k]`.  Signs follow
    a fixed convention (first non-negligible entry of each column is
    positive) so repeated decompositions agree exactly.  A truncated basis
    holds only the `width` lowest eigenpairs of an n-node graph.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.eigenvectors, dtype=float)
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def width(self) -> int:
        """Number of stored eigenpairs (n for the full basis)."""
        return self.eigenvectors.shape[1]

    def low_frequency(self, K: int) -> np.ndarray:
        """First K eigenvector columns (the K lowest graph frequencies)."""
        _check_bandwidth(K, self.n)
        if K > self.width:
            raise ValueError(f"bandwidth K={K} exceeds the {self.width} "
                             f"eigenvectors stored for n={self.n}")
        return self.eigenvectors[:, :K]

    def _require_full(self, op: str) -> None:
        if self.width != self.n:
            raise ValueError(f"{op} needs the full basis; this one holds "
                             f"{self.width} of {self.n} eigenvectors")


@dataclass(frozen=True)
class GraphSignal:
    """Node-domain values, optionally with their spectrum and bandwidth."""

    values: np.ndarray
    spectrum: np.ndarray | None = None
    bandwidth: int | None = None

    def __post_init__(self):
        x = np.asarray(self.values, dtype=float)
        x.setflags(write=False)
        object.__setattr__(self, "values", x)
        if self.spectrum is not None:
            s = np.asarray(self.spectrum, dtype=float)
            s.setflags(write=False)
            object.__setattr__(self, "spectrum", s)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Observation:
    """Noisy samples of a signal on an ordered set of node indices."""

    sample_indices: tuple
    values: np.ndarray

    def __post_init__(self):
        idx = tuple(int(i) for i in self.sample_indices)
        if len(set(idx)) != len(idx):
            raise ValueError("sample indices must be distinct")
        y = np.asarray(self.values, dtype=float)
        if y.shape != (len(idx),):
            raise ValueError("observation length must match index count")
        y.setflags(write=False)
        object.__setattr__(self, "sample_indices", idx)
        object.__setattr__(self, "values", y)


def _check_bandwidth(K, n: int | None = None) -> None:
    """Raise ValueError unless the bandwidth K is an integer in [1, n]."""
    if not isinstance(K, numbers.Integral):
        raise ValueError(f"bandwidth must be an integer, got {K!r}")
    if K < 1 or n is not None and K > n:
        raise ValueError(f"bandwidth K={K} must be at least 1" if n is None
                         else f"bandwidth K={K} out of range [1, {n}]")


def _fix_signs(v: np.ndarray) -> np.ndarray:
    """Flip the columns of v in place so that each one's first entry
    above SIGN_TOL in magnitude is positive; returns v.  A column with no
    such entry keeps its sign unless its first entry is negative."""
    lead = v[0].copy()
    for j in np.flatnonzero(~((lead > SIGN_TOL) | (lead < -SIGN_TOL))):
        column = v[:, j]
        lead[j] = column[((column > SIGN_TOL) | (column < -SIGN_TOL)).argmax()]
    v *= np.where(lead < 0, -1.0, 1.0)
    return v


def check_gap(eigenvalues, K: int, n: int) -> None:
    """Raise ValueError when the ascending `eigenvalues` of an n-node graph
    hold lambda_K+1 and it is too close to lambda_K (see `eigendecompose`)."""
    w = eigenvalues
    if K < len(w) and w[K] - w[K - 1] <= GAP_TOL * max(1.0, w[K]):
        raise ValueError(
            f"degenerate spectrum at the bandwidth (n={n}, K={K}): "
            f"lambda_K = {w[K - 1]!r} and lambda_K+1 = {w[K]!r} are too "
            "close for the K lowest eigenvectors to be unique")


def eigendecompose(lap: Laplacian, K: int | None = None) -> SpectralBasis:
    """Symmetric eigendecomposition with deterministic ordering.

    Eigenvalues come out ascending; the sign convention makes the result
    a pure function of the Laplacian, independent of LAPACK's arbitrary
    sign choices.

    Without `K`, or when K >= n, all n eigenpairs come from a dense
    `eigh`.  With K < n only the K lowest are computed (LAPACK's subset
    solver for the K + 1 lowest; the extra pair gives lambda_{K+1} and is
    dropped).  The K lowest eigenvectors span a unique subspace only when
    lambda_{K+1} > lambda_K, so the call raises ValueError when
    lambda_{K+1} - lambda_K <= tol * max(1, lambda_{K+1}), with
    tol = GAP_TOL = 1e-8 (`check_gap`).

    The solver works in an array of its own, `lap.dense()`, which also
    checks L's entries (see `Laplacian`).  That array is read transposed,
    F-ordered, which holds L because L is symmetric, so LAPACK's subset
    solve overwrites it without a copy; the full `eigh` works on a copy
    of it.  The subset solve is the call
    `scipy.linalg.eigh(a, subset_by_index=[0, K], driver="evr",
    overwrite_a=True, check_finite=False)` makes, made on `_flapack`
    directly: the workspace query `dsyevr_lwork`, then `dsyevr` for the
    K + 1 lowest pairs, keeping the first m it found.  The wrapper holds
    the interpreter lock for the whole solve.  K is checked first.
    """
    if K is not None:
        _check_bandwidth(K)
    a = lap.dense().T
    n = lap.n
    if K is None or K >= n:
        # eigh returns the eigenvalues ascending and v C-ordered and its
        # own, so the signs are fixed in place
        w, v = np.linalg.eigh(a)
        return SpectralBasis(w, _fix_signs(v))
    work, iwork, info = _flapack.dsyevr_lwork(n, lower=1)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: "
                         f"{info}")
    # LAPACK returns a subset's eigenvalues in ascending order
    w, v, m, _, info = _flapack.dsyevr(
        a, compute_v=1, range="I", lower=1, il=1, iu=K + 1,
        lwork=int(work), liwork=int(iwork), overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"Illegal value in argument {-info} of internal dsyevr"
            if info < -1 else "Internal Error.")
    check_gap(w[:m], K, n)
    return SpectralBasis(w[:K], _fix_signs(v[:, :K].copy()))


def gft(basis: SpectralBasis, x: np.ndarray) -> np.ndarray:
    """Forward transform: expansion coefficients V^T x."""
    basis._require_full("gft")
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.n,):
        raise ValueError(f"signal length {x.shape} != graph size {basis.n}")
    return basis.eigenvectors.T @ x


def igft(basis: SpectralBasis, xhat: np.ndarray) -> np.ndarray:
    """Inverse transform: synthesis V xhat."""
    basis._require_full("igft")
    xhat = np.asarray(xhat, dtype=float)
    if xhat.shape != (basis.n,):
        raise ValueError(f"spectrum length {xhat.shape} != graph size {basis.n}")
    return basis.eigenvectors @ xhat


def gen_signal(model: str, basis: SpectralBasis, seed: int,
               bandwidth: int | None = None) -> GraphSignal:
    """Draw a random signal from one of the named spectral models.

    GS1: exactly bandlimited, 10 low-frequency coefficients ~ N(0, 0.5).
    GS2: as GS1 plus N(0, 5e-3) energy in all remaining coefficients.
    GS3: exactly bandlimited with 40 coefficients ~ N(0, 0.5).

    The second Normal parameter is a variance; 0.5 is `SIGNAL_VARIANCE`,
    which `snr_to_sigma2` reads too.  `bandwidth` overrides the
    model default (used when experiments scale the bandwidth with n).
    The signal is synthesised from the columns the basis holds, so an
    exactly bandlimited model needs only the K lowest eigenvectors; GS2
    needs the full basis.
    """
    if model not in SIGNAL_MODELS:
        raise ValueError(f"unknown signal model {model!r}")
    default_k, tail_var = SIGNAL_MODELS[model]
    K = default_k if bandwidth is None else bandwidth
    n = basis.n
    _check_bandwidth(K, n)
    needed = n if tail_var is not None else K
    if basis.width < needed:
        raise ValueError(f"signal model {model} needs {needed} eigenvectors; "
                         f"the basis holds {basis.width} of {n}")
    rng = rng_from(seed)
    xhat = np.zeros(n)
    xhat[:K] = rng.normal(0.0, np.sqrt(SIGNAL_VARIANCE), size=K)
    if tail_var is not None and K < n:
        xhat[K:] = rng.normal(0.0, np.sqrt(tail_var), size=n - K)
    return GraphSignal(basis.eigenvectors @ xhat[:basis.width], xhat, K)


def observe(signal: GraphSignal, sample_indices, sigma2: float,
            seed: int = 0) -> Observation:
    """Sample the signal on `sample_indices` with i.i.d. N(0, sigma2) noise."""
    idx = [int(i) for i in sample_indices]
    return Observation(tuple(idx), _samples(signal.values, idx, sigma2,
                                            seed)[1])


def _samples(x: np.ndarray, idx, sigma2: float, seed: int):
    """(rows, y): the list or tuple of ints idx as an intp array, and
    `observe`'s sample values y = x[idx] plus i.i.d. N(0, sigma2) noise
    from `rng_from(seed)`, none drawn at sigma2 = 0.  Raises ValueError
    for an index out of range, a negative sigma2 or a repeated index, in
    that order."""
    if idx and not (0 <= min(idx) and max(idx) < len(x)):
        raise ValueError("sample index out of range")
    if sigma2 < 0:
        raise ValueError("noise variance must be nonnegative")
    if len(set(idx)) != len(idx):
        raise ValueError("sample indices must be distinct")
    rows = np.array(idx, dtype=np.intp)
    y = x.take(rows)
    if sigma2 > 0:
        y += rng_from(seed).normal(0.0, math.sqrt(sigma2), size=len(idx))
    return rows, y


def leverage_scores(basis: SpectralBasis, K: int) -> np.ndarray:
    """Per-node sampling probabilities: squared row norms of V_K over K.

    Sums to one because the K columns are orthonormal.
    """
    vk = basis.low_frequency(K)
    return (vk ** 2).sum(axis=1) / K
