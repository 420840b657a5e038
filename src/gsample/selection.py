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
Woodbury nothing n x n is formed).  `LoadedGramState` keeps Z^-1 with
rank-one (Sherman-Morrison) updates, and with one matvec per step the
per-node g_j = v_j Z^-1 v_j^T and U = V Z^-1 that the criteria read, so
a step costs O(nK); one incremental greedy loop runs all four criteria.
A dense filter matrix handed to `greedy_select` is factored once,
T = F F^T, from its eigenpairs.  god and eopt have no incremental form
and run the plain greedy loop of `oracle.greedy_minimize`.  The agod and
fagod steps take their argmin in compiled early-exit scans
(`smallest_candidate`); the numpy `candidate_objectives` stay as their
references.  Random sampling, which minimizes nothing, rounds out the
set of strategies benchmarked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger as _dger

from . import _kernels
from .filters import ApproxFilter
from .oracle import greedy_minimize
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
        idx = tuple(int(i) for i in self.indices)
        trace = tuple(float(v) for v in self.objective_trace)
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
    if mu < 0:
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
    if mu <= 0:
        raise ValueError("mu must be positive")
    indices = list(indices)
    if not indices:
        return 1.0 / mu
    tss = T[np.ix_(indices, indices)] + mu * np.eye(len(indices))
    return max_diag(np.linalg.inv(tss))


def objective_dopt(indices, basis: SpectralBasis, K: int, mu: float) -> float:
    """Normalized log-determinant criterion (1/K) ln |(V_SK^T V_SK + mu I)^-1|."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    vsk = _rows(basis, indices, K)
    sign, logdet = np.linalg.slogdet(vsk.T @ vsk + mu * np.eye(K))
    if sign <= 0:
        raise np.linalg.LinAlgError("loaded Gram matrix must be positive definite")
    return -logdet / K


def objective_aopt(indices, basis: SpectralBasis, K: int, mu: float) -> float:
    """Trace criterion Tr (V_SK^T V_SK + mu I)^-1 (K/mu on the empty set)."""
    if mu <= 0:
        raise ValueError("mu must be positive")
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


def _sherman_morrison(zinv: np.ndarray, v: np.ndarray):
    """(Z + v^T v)^-1 given Zinv for a 1-d v, with u = Zinv v^T and the
    divisor s = 1 + v u, at least 1 for positive definite Z."""
    u = zinv @ v
    s = 1.0 + float(v @ u)
    return zinv - np.outer(u, u) / s, u, s


def update_inverse_rank_one(zinv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sherman-Morrison: inverse of Z + v^T v given Zinv, for a row vector v."""
    return _sherman_morrison(zinv, np.asarray(v, dtype=float).reshape(-1))[0]


class LoadedGramState:
    """Incremental state for the K x K loaded Gram Z = V_S^T V_S + mu I.

    The one holder of Z^-1 for an n x K factor V: the K lowest
    eigenvectors for agod, aopt and dopt, the filter's factor for fagod.
    `add` makes one rank-one (Sherman-Morrison) update of Z^-1 and one
    matvec, h = V u / s, which updates g_j = v_j Z^-1 v_j^T for every
    node (g -= s h^2) and, once a step has read it, U = V Z^-1
    (U -= h u^T, by BLAS dger in place), so a step costs O(nK).
    dopt reads g only; aopt reads |u_j|^2 off the kept U, and the agod
    objective is max diag Z^-1.  `smallest_candidate` is the agod step,
    by the compiled scan; `candidate_objectives` is its numpy reference.
    """

    def __init__(self, factor: np.ndarray, mu: float):
        if mu <= 0:
            raise ValueError("mu must be positive")
        factor = np.asarray(factor, dtype=float)
        if factor.ndim != 2:
            raise ValueError("factor must be an n x K matrix")
        self.factor = factor
        self.n, self.K = factor.shape
        self.mu = mu
        self._zinv = np.eye(self.K) / mu
        self.g = np.einsum("ij,ij->i", factor, factor) / mu
        self._u = None  # U = V Z^-1, formed when a step first reads it
        self.selected = []
        self._taken = np.zeros(self.n, dtype=bool)
        self._agod = None

    @property
    def inverse(self) -> np.ndarray:
        return self._zinv.copy()

    def projections(self):
        """U = V Z^-1 (row j is v_j Z^-1) and g, the state's own arrays,
        which `add` updates in place."""
        if self._u is None:
            self._u = self.factor @ self._zinv
        return self._u, self.g

    def objective(self) -> float:
        return max_diag(self._zinv)

    def candidate_objectives(self) -> np.ndarray:
        """Objective after adding each node j (inf where already selected)."""
        u, g = self.projections()
        cand = np.diagonal(self._zinv)[None, :] - u ** 2 / (1.0 + g)[:, None]
        obj = cand.max(axis=1)
        obj[self._taken] = np.inf
        return obj

    def smallest_candidate(self):
        """The first node of smallest `candidate_objectives` and that
        objective, bit for bit, without the n x K temporaries."""
        if self._agod is None:
            self._agod = _kernels.AgodScan(*self.projections(), self._taken)
        np.copyto(self._agod.diag, np.diagonal(self._zinv))
        return self._agod()

    def candidate_traces(self) -> np.ndarray:
        """Tr (Z + v_j^T v_j)^-1 = Tr Z^-1 - |u_j|^2 / (1 + g_j) for each j
        (inf where already selected): the aopt criterion."""
        u, g = self.projections()
        # read off the kept U: |u_j|^2 updated by its own rank-one
        # recursion drifted to 2e-2 of its largest value at mu = 1e-6
        # on small degenerate factors, where these stayed within 2e-9
        traces = np.einsum("ij,ij->i", u, u)
        traces /= 1.0 + g
        np.subtract(np.trace(self._zinv), traces, out=traces)
        traces[self._taken] = np.inf
        return traces

    def add(self, j: int):
        """Select node j; returns u = Z^-1 v_j^T, s = 1 + v_j u and
        h = V u / s, the column V Z'^-1 v_j^T of the grown state."""
        j = int(j)
        if self._taken[j]:
            raise ValueError(f"node {j} already selected")
        self._zinv, u, s = _sherman_morrison(self._zinv, self.factor[j])
        h = self.factor @ u / s
        self.g -= s * h * h
        if self._u is not None:
            # U.T is U's memory in Fortran order: U -= h u^T in place
            _dger(-1.0, u, h, a=self._u.T, overwrite_a=True)
        self.selected.append(j)
        self._taken[j] = True
        return u, s, h


class FactoredFagodState(LoadedGramState):
    """fagod state for a filter given by its n x K factor V, T = V V^T.

    By Woodbury, (T_SS + mu I)^-1 = mu^-1 (I - V_S Z^-1 V_S^T) with the
    K x K loaded Gram Z = V_S^T V_S + mu I, so nothing n x n is formed.
    On top of the shared Z^-1 and g_j = v_j Z^-1 v_j^T the state keeps
    the m x n matrix B = V_S Z^-1 V^T and d = diag (T_SS + mu I)^-1; it
    never forms U.  Adding node j turns entry i of d into
    d_i + B_ij^2 / (mu (1 + g_j)) and appends 1 / (mu (1 + g_j)): the
    bordered inverse of T_SS + mu I grown by node j, whose Schur
    complement is mu (1 + g_j) and whose column (T_SS + mu I)^-1 T_Sj is
    B_:j.  A step costs O(mn + nK).
    """

    def __init__(self, factor: np.ndarray, mu: float):
        super().__init__(factor, mu)
        # rows of B and entries of d, grown by doubling; the first
        # len(selected) are live
        self._b = np.empty((0, self.n))
        self._d = np.empty(0)
        self._scan = None

    def objective(self) -> float:
        if not self.selected:
            return 1.0 / self.mu
        return float(self._d[:len(self.selected)].max())

    def candidate_objectives(self) -> np.ndarray:
        """Objective after adding each node j (inf where already selected)."""
        # the new node's own diagonal, 1 / Schur complement
        obj = 1.0 / (self.mu * (1.0 + self.g))
        m = len(self.selected)
        if m:
            grown = np.square(self._b[:m])
            grown *= obj
            grown += self._d[:m, None]
            obj = np.maximum(obj, grown.max(axis=0))
        obj[self._taken] = np.inf
        return obj

    def smallest_candidate(self):
        """The first node of smallest `candidate_objectives` and that
        objective, bit for bit, by the compiled scan of B's columns."""
        if self._scan is None:
            self._scan = _kernels.FagodScan(self._b, self._d, self.g,
                                            self._taken, self.mu)
        return self._scan(len(self.selected))

    def add(self, j: int) -> None:
        j, m = int(j), len(self.selected)
        # h, the new row of B: v_j Z'^-1 V^T = (V Z^-1 v_j^T)^T / s
        _, s, h = super().add(j)
        if m == self._b.shape[0]:
            rows = min(self.n, 2 * m + 8)
            self._b = np.concatenate([self._b, np.empty((rows - m, self.n))])
            self._d = np.concatenate([self._d, np.empty(rows - m)])
            self._scan = None  # bound to the old buffers
        b_j = self._b[:m, j].copy()
        schur = self.mu * s
        self._d[:m] += b_j ** 2 / schur
        self._d[m] = 1.0 / schur
        self._b[:m] -= b_j[:, None] * h
        self._b[m] = h


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


def _greedy(state, M: int, step) -> SamplingSet:
    """The incremental greedy loop: `step(state)` names the next node and
    its trace value, then the node joins the state."""
    _check_budget(M, state.n)
    trace = []
    for _ in range(M):
        j, value = step(state)
        trace.append(float(value))
        state.add(j)
    return SamplingSet(tuple(state.selected), tuple(trace))


def _smallest(scores: np.ndarray):
    # np.argmin returns the first minimum, so scores equal to the last bit
    # go to the smallest index (candidates that tie in exact arithmetic go
    # whichever way rounding sends them); the winning score is the step's
    # trace value
    j = int(np.argmin(scores))
    return j, scores[j]


def greedy_select(method: str, M: int, *, basis: SpectralBasis | None = None,
                  K: int | None = None, mu: float = DEFAULT_MU,
                  filt=None) -> SamplingSet:
    """Greedy minimization of one of the G-optimal objectives.

    method: "agod" or "god" (need basis, K; god forces mu = 0), or "fagod"
    on an `ApproxFilter` filt's factor, on V_K of the exact filter
    V_K V_K^T given basis and K, or on a dense symmetric positive
    semidefinite filter matrix filt, factored once from its eigenpairs.
    Every fagod form runs `FactoredFagodState`.  At each step the node
    with the smallest resulting objective joins the set; objectives
    equal to the last bit go to the smallest node index, while a tie in
    exact arithmetic goes whichever way rounding sends it.
    """
    if method not in ("agod", "fagod", "god"):
        raise ValueError(f"unknown greedy method {method!r}")
    if method == "fagod" and filt is not None:
        state = FactoredFagodState(
            filt.factor if isinstance(filt, ApproxFilter)
            else _dense_factor(filt), mu)
    elif basis is None or K is None:
        raise ValueError(f"{method} needs basis and K")
    elif method == "god":
        # pseudo-inverse objective below full rank: no incremental form,
        # evaluated from scratch (reference implementation, small n only)
        _check_budget(M, basis.n)
        selected, trace = greedy_minimize(
            lambda S: objective_agod(S, basis, K, 0.0), basis.n, M)
        return SamplingSet(tuple(selected), tuple(trace))
    else:
        state = (LoadedGramState if method == "agod"
                 else FactoredFagodState)(basis.low_frequency(K), mu)
    return _greedy(state, M, lambda s: s.smallest_candidate())


def greedy_doptimal(basis: SpectralBasis, K: int, mu: float, M: int) -> SamplingSet:
    """Greedy log-determinant maximization of the loaded Gram matrix.

    The determinant gain of adding node j is 1 + g_j (matrix determinant
    lemma), so each step takes the largest g_j.  The trace records
    (1/K) ln |Z^-1|, accumulated from log1p(g_j): ranking by the updated
    log-determinant instead would merge gains closer than its last digit.
    """
    state = LoadedGramState(basis.low_frequency(K), mu)
    logdet = K * np.log(mu)

    def largest_gain(s):
        nonlocal logdet
        gain = np.where(s._taken, -np.inf, s.g)
        j = int(np.argmax(gain))
        logdet += np.log1p(gain[j])
        return j, -logdet / K

    return _greedy(state, M, largest_gain)


def greedy_aoptimal(basis: SpectralBasis, K: int, mu: float, M: int) -> SamplingSet:
    """Greedy trace minimization of the inverted loaded Gram matrix."""
    state = LoadedGramState(basis.low_frequency(K), mu)
    return _greedy(state, M, lambda s: _smallest(s.candidate_traces()))


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
    same at every budget M.  A random set minimizes no objective, so its
    trace is empty; `objective_agod` scores any prefix on the greedy
    methods' axis.
    """
    _check_budget(M, basis.n)
    rng = rng_from(seed)
    if mode == "uniform":
        chosen = rng.choice(basis.n, size=M, replace=False).tolist()
    elif mode == "leverage":
        probs = leverage_scores(basis, K)
        remaining = np.arange(basis.n)
        weights = probs.copy()
        chosen = []
        for _ in range(M):
            pick = rng.choice(remaining, p=weights / weights.sum())
            chosen.append(int(pick))
            keep = remaining != pick
            remaining = remaining[keep]
            weights = weights[keep]
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
