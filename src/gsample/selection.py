"""Sampling-set selection strategies.

The main family minimizes the worst-case coordinate variance of the
spectral estimate (a G-optimal criterion): the objective is the largest
diagonal entry of the inverted, diagonally loaded Gram matrix of the
sampled eigenvector rows.  Three variants are provided:

* god    - unloaded objective, max diag (V_SK^T V_SK)^-1, pseudo-inverse
           below full rank (numerically fragile, kept for reference);
* agod   - loaded objective, max diag (V_SK^T V_SK + mu I)^-1;
* fagod  - filter-submatrix form, max diag (T_SS + mu I)^-1, which needs
           only a low-pass filter matrix T and therefore runs without an
           eigendecomposition when T is the Givens approximation.

Every criterion but god and eopt is a score on one matrix, the K x K
loaded Gram Z = V_S^T V_S + mu I of an n x K factor V: the K lowest
eigenvectors for agod, aopt and dopt, the filter's factor for fagod
(T = V V^T: V_K for the exact filter, V~_K for the Givens one; through
Woodbury nothing n x n is formed).  Each step keeps Z^-1 by a rank-one
(Sherman-Morrison) update, and with one matvec the per-node
g_j = v_j Z^-1 v_j^T and U = V Z^-1 that the criteria read, so a step
costs O(nK).  A whole selection of any of the four criteria runs as one
compiled pass, `_kernels.greedy_pass`: it starts from the numpy Z^-1, g
and U of the empty set and repeats the numpy per-entry arithmetic, but
sums its dot products in its own fixed order, not BLAS's.  Its numpy
reference, the states `LoadedGramState` and `FactoredFagodState`, lives
in `gsample.oracle`: the pass's picks are theirs, and its traces match
theirs to the last bits.  A dense filter matrix handed to
`greedy_select` is factored once, T = F F^T, from its eigenpairs.  god
and eopt have no incremental form and run the plain greedy loop of
`oracle.greedy_minimize`.  Random sampling, which minimizes nothing,
rounds out the set of strategies benchmarked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .filters import ApproxFilter
from .oracle import _check_mu, greedy_minimize
from .rng import rng_from
from .spectral import SpectralBasis, leverage_scores

# Diagonal loading chosen so the loaded Gram's condition number stays
# below kappa_0 = 100: mu = 1 / (kappa_0 - 1).
DEFAULT_KAPPA0 = 100.0
DEFAULT_MU = 1.0 / (DEFAULT_KAPPA0 - 1.0)

# Relative singular-value cutoff for rank decisions (god objective, BLUE);
# the unbiased estimator degrades silently on near-singular systems without
# it.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class SamplingSet:
    """Ordered selection of node indices with its per-step objective trace.

    The trace is empty for a selection that minimizes no objective (the
    random baselines); otherwise it holds one value per step.
    """

    indices: tuple
    objective_trace: tuple

    def __post_init__(self):
        idx = tuple(map(int, self.indices))
        trace = tuple(map(float, self.objective_trace))
        if len(set(idx)) != len(idx):
            raise ValueError("selected indices must be distinct")
        if trace and len(trace) != len(idx):
            raise ValueError("objective trace must have one value per selection step")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "objective_trace", trace)

    @property
    def size(self) -> int:
        return len(self.indices)


def max_diag(mat: np.ndarray) -> float:
    return float(np.max(np.diagonal(mat)))


def _rows(basis: SpectralBasis, indices, K: int) -> np.ndarray:
    vk = basis.low_frequency(K)
    return vk[list(indices), :]


def _loaded_gram_inverse(vsk: np.ndarray, mu: float) -> np.ndarray:
    K = vsk.shape[1]
    z = vsk.T @ vsk + mu * np.eye(K)
    return np.linalg.inv(z)


def objective_agod(indices, basis: SpectralBasis, K: int, mu: float) -> float:
    """max diag (V_SK^T V_SK + mu I)^-1; 1/mu for the empty set.

    mu = 0 recovers the unloaded (god) objective, computed through a
    pseudo-inverse when the Gram matrix is rank deficient.
    """
    if not mu >= 0:
        raise ValueError("mu must be nonnegative")
    indices = list(indices)
    if mu == 0.0:
        vsk = _rows(basis, indices, K)
        return max_diag(np.linalg.pinv(vsk.T @ vsk, rcond=RANK_TOL))
    if not indices:
        return 1.0 / mu
    return max_diag(_loaded_gram_inverse(_rows(basis, indices, K), mu))


def objective_fagod(indices, T: np.ndarray, mu: float) -> float:
    """max diag (T_SS + mu I)^-1 for a filter matrix T; 1/mu on the empty set."""
    _check_mu(mu)
    indices = list(indices)
    if not indices:
        return 1.0 / mu
    tss = T[np.ix_(indices, indices)] + mu * np.eye(len(indices))
    return max_diag(np.linalg.inv(tss))


def objective_dopt(indices, basis: SpectralBasis, K: int, mu: float) -> float:
    """Normalized log-determinant criterion (1/K) ln |(V_SK^T V_SK + mu I)^-1|."""
    _check_mu(mu)
    vsk = _rows(basis, indices, K)
    sign, logdet = np.linalg.slogdet(vsk.T @ vsk + mu * np.eye(K))
    if sign <= 0:
        raise np.linalg.LinAlgError("loaded Gram matrix must be positive definite")
    return -logdet / K


def objective_aopt(indices, basis: SpectralBasis, K: int, mu: float) -> float:
    """Trace criterion Tr (V_SK^T V_SK + mu I)^-1 (K/mu on the empty set)."""
    _check_mu(mu)
    indices = list(indices)
    if not indices:
        return K / mu
    return float(np.trace(_loaded_gram_inverse(_rows(basis, indices, K), mu)))


def objective_eopt(indices, basis: SpectralBasis, K: int) -> float:
    """Smallest singular value of V_SK (0.0 for the empty set; maximized)."""
    indices = list(indices)
    if not indices:
        return 0.0
    sv = np.linalg.svd(_rows(basis, indices, K), compute_uv=False)
    return float(sv[-1])


def _dense_factor(T) -> np.ndarray:
    """An n x r factor F with T = F F^T for a dense PSD filter matrix T.

    F holds the eigenvectors of T scaled by the square roots of the
    eigenvalues above tol = n eps max(|lambda|, 1); eigenvalues in
    [-tol, tol] are rounding and dropped, and one below -tol raises.
    T must be symmetric to n eps max(|T_ij|, 1).
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError("filter matrix must be square")
    if not np.isfinite(T).all():
        raise ValueError("filter matrix must be finite")
    eps = len(T) * np.finfo(float).eps
    # eigh reads one triangle only, so an asymmetric T would pass unseen
    if np.abs(T - T.T).max(initial=0) > eps * max(np.abs(T).max(initial=0), 1):
        raise ValueError("filter matrix must be symmetric")
    lam, vec = np.linalg.eigh(T)
    tol = eps * max(np.abs(lam).max(initial=0), 1)
    if len(lam) and lam[0] < -tol:
        raise ValueError(f"filter matrix is not positive semidefinite: "
                         f"eigenvalue {lam[0]:.3g}")
    keep = lam > tol
    return vec[:, keep] * np.sqrt(lam[keep])


def _check_budget(M: int, n: int) -> None:
    if not 1 <= M <= n:
        raise ValueError(f"budget M={M} out of range [1, {n}]")


def _greedy_pass(method: str, factor, mu: float, M: int) -> SamplingSet:
    """M greedy steps of agod, fagod, dopt or aopt on the n x K factor V,
    as one compiled pass; a non-finite factor entry raises."""
    _check_mu(mu)
    factor = np.asarray(factor, dtype=float)
    if factor.ndim != 2:
        raise ValueError("factor must be an n x K matrix")
    _check_budget(M, len(factor))
    if not np.isfinite(factor).all():
        raise ValueError(f"{method} factor must be finite")
    picks, trace = _kernels.greedy_pass(method, factor, mu, M)
    return SamplingSet(picks.tolist(), trace.tolist())


def greedy_select(method: str, M: int, *, basis: SpectralBasis | None = None,
                  K: int | None = None, mu: float = DEFAULT_MU,
                  filt=None) -> SamplingSet:
    """Greedy minimization of one of the G-optimal objectives.

    method: "agod" or "god" (need basis, K; god forces mu = 0), or "fagod"
    on an `ApproxFilter` filt's factor, on V_K of the exact filter
    V_K V_K^T given basis and K, or on a dense symmetric positive
    semidefinite filter matrix filt, factored once from its eigenpairs.
    agod and every fagod form run one compiled pass.  At each step the
    node with the smallest resulting objective joins the set; objectives
    equal to the last bit go to the smallest node index, while a tie in
    exact arithmetic goes whichever way rounding sends it.
    """
    if method not in ("agod", "fagod", "god"):
        raise ValueError(f"unknown greedy method {method!r}")
    if method == "fagod" and filt is not None:
        return _greedy_pass("fagod", filt.factor if isinstance(
            filt, ApproxFilter) else _dense_factor(filt), mu, M)
    if basis is None or K is None:
        raise ValueError(f"{method} needs basis and K")
    if method == "god":
        # pseudo-inverse objective below full rank: no incremental form,
        # evaluated from scratch (reference implementation, small n only)
        _check_budget(M, basis.n)
        selected, trace = greedy_minimize(
            lambda S: objective_agod(S, basis, K, 0.0), basis.n, M)
        return SamplingSet(tuple(selected), tuple(trace))
    return _greedy_pass(method, basis.low_frequency(K), mu, M)


def greedy_doptimal(basis: SpectralBasis, K: int, mu: float, M: int) -> SamplingSet:
    """Greedy log-determinant maximization of the loaded Gram matrix.

    The determinant gain of adding node j is 1 + g_j (matrix determinant
    lemma), so each step takes the largest g_j.  The trace records
    (1/K) ln |Z^-1|, accumulated from log1p(g_j): ranking by the updated
    log-determinant instead would merge gains closer than its last digit.
    """
    return _greedy_pass("dopt", basis.low_frequency(K), mu, M)


def greedy_aoptimal(basis: SpectralBasis, K: int, mu: float, M: int) -> SamplingSet:
    """Greedy trace minimization of the inverted loaded Gram matrix: each
    step takes the smallest Tr Z^-1 - |u_j|^2 / (1 + g_j)."""
    return _greedy_pass("aopt", basis.low_frequency(K), mu, M)


def greedy_eoptimal(basis: SpectralBasis, K: int, M: int) -> SamplingSet:
    """Greedy maximization of the smallest singular value of V_SK.

    Below |S| = K the smallest of the |S| singular values is used, which
    extends the criterion to every step.  Runs the plain greedy loop on
    the negated value (no incremental form; small n only).
    """
    _check_budget(M, basis.n)
    selected, trace = greedy_minimize(
        lambda S: -objective_eopt(S, basis, K), basis.n, M)
    return SamplingSet(tuple(selected), tuple(-v for v in trace))


def random_select(mode: str, basis: SpectralBasis, K: int, M: int,
                  seed: int) -> SamplingSet:
    """Random sampling without replacement, uniform or leverage-weighted.

    Leverage mode draws sequentially with renormalization over the
    remaining nodes, one uniform per pick, so its first picks are the
    same at every budget M.  Each pick is the one of
    `rng.choice(remaining, p=weights / weights.sum())`, made in one
    compiled call with numpy's own arithmetic (`_kernels.leverage_draw`):
    the cumulative sum of p over its last entry, searched for one
    `rng.random()`.  `oracle.leverage_draw_reference` is that loop of
    `rng.choice` calls.  Raises ValueError when a leverage score is not
    finite or negative, or their sum is not finite, where numpy's checks
    of p would, and when fewer than M nodes have nonzero leverage, since
    a node without it is never drawn.  A random set minimizes no
    objective, so its trace is empty; `objective_agod` scores any prefix
    on the greedy methods' axis.
    """
    _check_budget(M, basis.n)
    rng = rng_from(seed)
    if mode == "uniform":
        chosen = rng.choice(basis.n, size=M, replace=False).tolist()
    elif mode == "leverage":
        weights = leverage_scores(basis, K)
        if not np.isfinite(weights.sum()) or weights.min() < 0:
            raise ValueError("leverage scores must be finite and "
                             "nonnegative, with a finite sum")
        nonzero = np.count_nonzero(weights)
        if nonzero < M:
            raise ValueError(f"leverage sampling of M={M} nodes needs M "
                             f"nodes with nonzero leverage; {nonzero} "
                             f"have it")
        # the M uniforms of M rng.random() calls
        chosen = _kernels.leverage_draw(weights, rng.random(M)).tolist()
    else:
        raise ValueError(f"unknown random mode {mode!r}")
    return SamplingSet(tuple(chosen), ())


def save_sampling_csv(sampling: SamplingSet, path) -> None:
    """Write a selection as CSV rows `step,node,objective`.

    A selection without a trace writes every node with an empty objective.
    """
    objectives = ([repr(v) for v in sampling.objective_trace]
                  or [""] * sampling.size)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,node,objective\n")
        for step, (node, obj) in enumerate(zip(sampling.indices, objectives),
                                           start=1):
            fh.write(f"{step},{node},{obj}\n")
