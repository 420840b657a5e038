"""Ground-truth and theory verification tools.

Everything here works on a bare set objective `g(indices) -> float`, so
the same machinery certifies any of the selection criteria: exhaustive
optima over all fixed-size subsets, relative suboptimality of candidate
sets, the empirical approximate-supermodularity constant alpha with its
closed-form lower bounds, and the geometric decay guarantee for greedy
minimization of monotone alpha-supermodular objectives.  It also keeps
the numpy references of the compiled kernels: the Jacobi rotations,
greedy sweep and rotation product that `gsample.filters` must reproduce
bit for bit, and the loaded-Gram states `LoadedGramState` and
`FactoredFagodState`, whose picks the compiled greedy passes of
`gsample.selection` must make, with traces that differ only in their
last bits; the dense adjacency matrix that a graph's edge list stands
for; and the leverage draw as numpy's `Generator.choice` makes it, whose
picks `gsample.selection.random_select` must make.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .filters import OFFDIAG_TOL

# Hard ceiling on enumerated subsets; exceeding it is an error, never a
# silent truncation.
COMB_GUARD = 10 ** 6

# Marginal gains this small make an alpha ratio meaningless; such pairs
# are skipped and counted.
DEGENERATE_GAIN = 1e-14

ALPHA_MAX_NODES = 8


def _check_mu(mu: float) -> None:
    """Reject a loading mu that is not positive, NaN included."""
    if not mu > 0:
        raise ValueError("mu must be positive")


@dataclass(frozen=True)
class SuboptimalityReport:
    """Objective value of a candidate set against the exhaustive optimum."""

    g_hat: float
    g_star: float
    g_empty: float
    r: float


@dataclass(frozen=True)
class AlphaReport:
    """Empirical alpha over all nested set pairs, with closed-form bounds."""

    alpha_empirical: float
    bound_g: float
    bound_tr: float
    mu: float
    skipped: int
    considered: int


def exhaustive_optimum(objective, n: int, M: int):
    """Minimum of `objective` over all size-M subsets of range(n).

    Returns (best value, lexicographically smallest argmin).  Guarded by
    a subset-count limit; raises instead of sampling.
    """
    if not 0 <= M <= n:
        raise ValueError(f"subset size M={M} out of range [0, {n}]")
    total = math.comb(n, M)
    if total > COMB_GUARD:
        raise ValueError(f"C({n}, {M}) = {total} exceeds enumeration guard {COMB_GUARD}")
    best_val = np.inf
    best_set = None
    for subset in combinations(range(n), M):  # lexicographic order
        val = float(objective(subset))
        if val < best_val:
            best_val, best_set = val, subset
    return best_val, best_set


def relative_suboptimality(objective, candidate_set, n: int, M: int) -> SuboptimalityReport:
    """Normalized optimality gap r = (g(S) - g*) / (g(empty) - g*).

    The candidate is evaluated in sorted order so a set that equals the
    exhaustive argmin reproduces g* bit for bit (r = 0 exactly).
    """
    candidate = tuple(sorted(int(i) for i in candidate_set))
    if len(candidate) != M:
        raise ValueError(f"candidate set has size {len(candidate)}, expected {M}")
    g_hat = float(objective(candidate))
    g_star, _ = exhaustive_optimum(objective, n, M)
    g_empty = float(objective(()))
    gap = g_empty - g_star
    if gap <= 0:
        raise ValueError("degenerate instance: g(empty) <= g*")
    r = (g_hat - g_star) / gap
    return SuboptimalityReport(g_hat, g_star, g_empty, r)


def _subset_values(objective, n: int):
    values = np.empty(2 ** n)
    for mask in range(2 ** n):
        indices = tuple(i for i in range(n) if mask >> i & 1)
        values[mask] = float(objective(indices))
    return values


def empirical_alpha(objective, n: int, mu: float) -> AlphaReport:
    """Exact alpha by enumerating every A subset of B and j outside B.

    alpha is the smallest ratio of marginal gains [g(A+j) - g(A)] /
    [g(B+j) - g(B)].  Ratios with a denominator below DEGENERATE_GAIN in
    magnitude are skipped and counted.
    """
    if n > ALPHA_MAX_NODES:
        raise ValueError(f"alpha enumeration limited to n <= {ALPHA_MAX_NODES}")
    g = _subset_values(objective, n)
    alpha = np.inf
    skipped = 0
    considered = 0
    for b_mask in range(2 ** n):
        for j in range(n):
            bit = 1 << j
            if b_mask & bit:
                continue
            denom = g[b_mask | bit] - g[b_mask]
            a_mask = b_mask
            while True:
                if abs(denom) <= DEGENERATE_GAIN:
                    skipped += 1
                else:
                    considered += 1
                    ratio = (g[a_mask | bit] - g[a_mask]) / denom
                    if ratio < alpha:
                        alpha = ratio
                if a_mask == 0:
                    break
                a_mask = (a_mask - 1) & b_mask
    if considered == 0:
        raise ValueError("all marginal-gain denominators are degenerate")
    bound_g, bound_tr = theorem_bounds(mu)
    return AlphaReport(float(alpha), bound_g, bound_tr, mu, skipped, considered)


def theorem_bounds(mu: float):
    """Closed-form candidate bounds on alpha for the max-diag and trace criteria.

    bound_g = mu (2 + mu) / (1 + mu)^2 dominates bound_tr =
    mu^3 (2 + mu) / (1 + mu)^4 for every mu > 0.  With loading chosen as
    mu = 10^(-snr/10) these trace out curves over the nominal SNR.

    bound_g is not a lower bound on alpha for the max-diag objective
    max diag (V_SK^T V_SK + mu I)^-1 once K >= 2: adding node j to the
    empty set gains min_k v_jk^2 / (mu (mu + |v_j|^2)), which is zero when
    row j of V_K has a zero entry.  On the 3-node path at K = 2 the middle
    node gains nothing from the empty set but a positive amount after an
    end node, so alpha = 0 for every mu.  At K = 1 the objective is
    1 / (sum_S v_j^2 + mu), alpha = 1, and the bound holds.
    """
    _check_mu(mu)
    bound_g = mu * (2.0 + mu) / (1.0 + mu) ** 2
    bound_tr = mu ** 3 * (2.0 + mu) / (mu + 1.0) ** 4
    return bound_g, bound_tr


def greedy_minimize(objective, n: int, M: int):
    """Plain greedy minimization of a set objective (smallest-index ties)."""
    selected: list[int] = []
    trace = []
    for _ in range(M):
        best_val, best_j = np.inf, -1
        for j in range(n):
            if j in selected:
                continue
            val = float(objective(tuple(selected + [j])))
            if val < best_val:
                best_val, best_j = val, j
        selected.append(best_j)
        trace.append(best_val)
    return selected, trace


def greedy_decay_check(objective, n: int, mu: float, M: int):
    """Verify the geometric decay of the greedy optimality gap.

    For every prefix length l the normalized gap against the exhaustive
    size-l optimum must stay below (1 - alpha/M)^l <= exp(-alpha l / M),
    with alpha set to the nominal closed-form value `theorem_bounds(mu)[0]`.
    That value is not a certified supermodularity constant for the
    max-diag objective at K >= 2 (see `theorem_bounds`), so a pass here
    is a measurement of greedy's gap, not a consequence of a proven
    alpha.  Returns (all_hold, per-step records).
    """
    alpha, _ = theorem_bounds(mu)
    selected, _ = greedy_minimize(objective, n, M)
    g_empty = float(objective(()))
    rows = []
    ok = True
    for l in range(1, M + 1):
        g_l = float(objective(tuple(selected[:l])))
        g_star, _ = exhaustive_optimum(objective, n, l)
        gap = g_empty - g_star
        if gap <= 0:
            raise ValueError("degenerate instance: g(empty) <= g*")
        ratio = (g_l - g_star) / gap
        bound = (1.0 - alpha / M) ** l
        exp_bound = math.exp(-alpha * l / M)
        holds = ratio <= bound + 1e-12 and bound <= exp_bound + 1e-12
        ok = ok and holds
        rows.append({"l": l, "ratio": ratio, "bound": bound,
                     "exp_bound": exp_bound, "holds": holds})
    return ok, rows


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

    The numpy reference of the compiled greedy pass behind
    `selection.greedy_select`, `greedy_doptimal` and `greedy_aoptimal`,
    for an n x K factor V: the K lowest eigenvectors for agod, aopt and
    dopt, the filter's factor for fagod.  `add` makes one rank-one
    (Sherman-Morrison) update of Z^-1 and one matvec, h = V u / s, which
    updates g_j = v_j Z^-1 v_j^T for every node (g -= s h^2) and
    U = V Z^-1 (U -= h u^T in place, each entry rounded after its product
    and after its difference, as the compiled pass rounds), so a step
    costs O(nK).  dopt reads g only; aopt reads |u_j|^2 off the kept U, and
    the agod objective is max diag Z^-1.
    """

    def __init__(self, factor: np.ndarray, mu: float):
        _check_mu(mu)
        factor = np.ascontiguousarray(factor, dtype=float)
        if factor.ndim != 2:
            raise ValueError("factor must be an n x K matrix")
        self.factor = factor
        self.n, self.K = factor.shape
        self.mu = mu
        self._zinv = np.eye(self.K) / mu
        self.g = np.einsum("ij,ij->i", factor, factor) / mu
        self._u = factor @ self._zinv
        self.selected = []
        self._taken = np.zeros(self.n, dtype=bool)

    @property
    def inverse(self) -> np.ndarray:
        return self._zinv.copy()

    def projections(self):
        """U = V Z^-1 (row j is v_j Z^-1) and g, the state's own arrays,
        which `add` updates in place."""
        return self._u, self.g

    def objective(self) -> float:
        return float(np.max(np.diagonal(self._zinv)))

    def candidate_objectives(self) -> np.ndarray:
        """Objective after adding each node j (inf where already selected)."""
        u, g = self.projections()
        cand = np.diagonal(self._zinv)[None, :] - u ** 2 / (1.0 + g)[:, None]
        obj = cand.max(axis=1)
        obj[self._taken] = np.inf
        return obj

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
        self._u -= np.multiply.outer(h, u)
        self.selected.append(j)
        self._taken[j] = True
        return u, s, h


class FactoredFagodState(LoadedGramState):
    """fagod state for a filter given by its n x K factor V, T = V V^T.

    By Woodbury, (T_SS + mu I)^-1 = mu^-1 (I - V_S Z^-1 V_S^T) with the
    K x K loaded Gram Z = V_S^T V_S + mu I, so nothing n x n is formed.
    On top of the shared Z^-1 and g_j = v_j Z^-1 v_j^T the state keeps
    the m x n matrix B = V_S Z^-1 V^T and d = diag (T_SS + mu I)^-1.
    Adding node j turns entry i of d into
    d_i + B_ij^2 / (mu (1 + g_j)) and appends 1 / (mu (1 + g_j)): the
    bordered inverse of T_SS + mu I grown by node j, whose Schur
    complement is mu (1 + g_j) and whose column (T_SS + mu I)^-1 T_Sj is
    B_:j.  A step costs O(mn + nK).
    """

    def __init__(self, factor: np.ndarray, mu: float):
        super().__init__(factor, mu)
        self._b = np.empty((0, self.n))
        self._d = np.empty(0)

    def objective(self) -> float:
        if not self.selected:
            return 1.0 / self.mu
        return float(self._d.max())

    def candidate_objectives(self) -> np.ndarray:
        """Objective after adding each node j (inf where already selected)."""
        # the new node's own diagonal, 1 / Schur complement
        obj = 1.0 / (self.mu * (1.0 + self.g))
        if self.selected:
            grown = np.square(self._b)
            grown *= obj
            grown += self._d[:, None]
            obj = np.maximum(obj, grown.max(axis=0))
        obj[self._taken] = np.inf
        return obj

    def add(self, j: int) -> None:
        # h, the new row of B: v_j Z'^-1 V^T = (V Z^-1 v_j^T)^T / s
        _, s, h = super().add(j)
        b_j = self._b[:, int(j)]
        schur = self.mu * s
        self._d = np.append(self._d + b_j ** 2 / schur, 1.0 / schur)
        self._b = np.vstack([self._b - b_j[:, None] * h, h])


def _rotate_columns(mat: np.ndarray, p: int, q: int, c: float, s: float) -> None:
    # right-multiplication by the rotation with entries [[c, s], [-s, c]]
    # in the (p, q) plane
    col_p = c * mat[:, p] - s * mat[:, q]
    col_q = s * mat[:, p] + c * mat[:, q]
    mat[:, p] = col_p
    mat[:, q] = col_q


def _rotate_symmetric(w: np.ndarray, p: int, q: int, c: float, s: float) -> None:
    # two-sided update W <- G^T W G, then explicit zero of the target pair
    _rotate_columns(w, p, q, c, s)
    row_p = c * w[p, :] - s * w[q, :]
    row_q = s * w[p, :] + c * w[q, :]
    w[p, :] = row_p
    w[q, :] = row_q
    w[p, q] = 0.0
    w[q, p] = 0.0


def apply_rotation(w: np.ndarray, p: int, q: int, theta: float) -> None:
    """In-place two-sided rotation of a symmetric matrix."""
    _rotate_symmetric(w, p, q, math.cos(theta), math.sin(theta))


def offdiag_sq_norm(mat: np.ndarray) -> float:
    """Squared Frobenius norm of the off-diagonal part."""
    return float((mat ** 2).sum() - (np.diag(mat) ** 2).sum())


def jacobi_angle(w_pp: float, w_qq: float, w_pq: float) -> float:
    """Classical Jacobi angle that zeroes the (p, q) entry."""
    return 0.5 * math.atan2(2.0 * w_pq, w_qq - w_pp)


def greedy_jacobi_reference(matrix, J: int):
    """Numpy reference of `filters.greedy_jacobi`, by its definition, on
    a copy of the symmetric array `matrix` (a Laplacian's `dense()`, or
    any symmetric matrix).

    Each of at most J rotations zeroes the first largest |w_pq|, p < q,
    of the current matrix in row-major order; the sweep stops once that
    magnitude is at most OFFDIAG_TOL.  Every pivot is a fresh scan of the
    strict upper triangle.  Returns (rotations as a tuple of
    (p, q, theta), approximate eigenvalues sorted ascending, perm).
    """
    w = np.array(matrix, dtype=float, order="C")
    n = w.shape[0]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    # entries outside the strict upper triangle stay zero
    magnitude = np.zeros((n, n))
    rotations = []
    for _ in range(J):
        np.abs(w, out=magnitude, where=upper)
        p, q = divmod(int(np.argmax(magnitude)), n)
        if magnitude[p, q] <= OFFDIAG_TOL:
            break
        theta = jacobi_angle(w[p, p], w[q, q], w[p, q])
        apply_rotation(w, p, q, theta)
        rotations.append((p, q, theta))
    diag = np.diag(w).copy()
    perm = np.argsort(diag, kind="stable")
    return tuple(rotations), diag[perm], perm


def dense_adjacency(graph) -> np.ndarray:
    """The n x n adjacency matrix of a Graph, written from its edge list:
    w at (i, j) and (j, i) for each edge, +0.0 elsewhere."""
    adj = np.zeros((graph.n, graph.n))
    adj[graph.rows, graph.cols] = graph.weights
    adj[graph.cols, graph.rows] = graph.weights
    return adj


def leverage_draw_reference(weights, M: int, seed: int) -> tuple:
    """The M nodes of a leverage draw with the weights `weights`: one
    `rng.choice(remaining, p=weights / weights.sum())` per pick over the
    nodes not yet drawn, from numpy's own Generator(PCG64(seed))."""
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = np.array(weights, dtype=float)
    remaining = np.arange(len(weights))
    chosen = []
    for _ in range(M):
        pick = rng.choice(remaining, p=weights / weights.sum())
        chosen.append(int(pick))
        keep = remaining != pick
        remaining = remaining[keep]
        weights = weights[keep]
    return tuple(chosen)


def givens_matrix_reference(n: int, rotations) -> np.ndarray:
    """Numpy reference of the rotation product Q = G_1 ... G_m: the
    rotations applied in order to the columns of the identity.
    `GivensSeq.low_frequency` returns columns of Q."""
    q_mat = np.eye(n)
    for p, q, theta in rotations:
        _rotate_columns(q_mat, p, q, math.cos(theta), math.sin(theta))
    return q_mat


def save_alpha_csv(labeled_reports, path) -> None:
    """Write AlphaReports as CSV, one row per (instance, mu)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "mu", "alpha_empirical", "bound_g",
                         "bound_tr", "skipped", "considered"])
        for instance, report in labeled_reports:
            writer.writerow([instance, repr(report.mu),
                             repr(report.alpha_empirical), repr(report.bound_g),
                             repr(report.bound_tr), report.skipped,
                             report.considered])


def save_subopt_csv(labeled_reports, path) -> None:
    """Write SuboptimalityReports as CSV, one row per (instance, M)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "M", "r", "g_hat", "g_star", "g_empty"])
        for instance, M, report in labeled_reports:
            writer.writerow([instance, M, repr(report.r), repr(report.g_hat),
                             repr(report.g_star), repr(report.g_empty)])
