"""Low-pass graph filters and their Givens-rotation approximation.

The ideal low-pass filter with cutoff K is the projector V_K V_K^T onto
the K lowest-frequency eigenvectors.  The approximate variant avoids the
eigendecomposition entirely: a greedy Jacobi sweep applies a fixed budget
of Givens rotations to the Laplacian, and the accumulated rotation
product plays the role of the eigenvector matrix.  The sweep and the
rotation product run in the compiled kernels of `_kernels.c`; their numpy
references live in `gsample.oracle`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graphs import Laplacian
from .spectral import SpectralBasis

# Off-diagonal magnitudes at or below this stop the Jacobi sweep early.
OFFDIAG_TOL = 1e-12


class GivensSeq:
    """Ordered Givens rotations (p, q, theta) acting on an n-point space.

    The rotations are held as an (m, 2) int64 array of planes and an array
    of m angles, which the kernels read; the `rotations` tuple of Python
    (int, int, float) triples is built on first access.
    """

    def __init__(self, n: int, rotations):
        rots = tuple(rotations)
        table = np.array(rots, dtype=float).reshape(len(rots), 3)
        planes = table[:, :2].astype(np.int64)
        p, q = planes[:, 0], planes[:, 1]
        bad = ~((0 <= p) & (p < q) & (q < n))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"rotation plane ({p[i]}, {q[i]}) out of range for n={n}")
        self._adopt(n, planes, np.ascontiguousarray(table[:, 2]))

    @classmethod
    def _from_arrays(cls, n: int, planes: np.ndarray,
                     thetas: np.ndarray) -> "GivensSeq":
        # a sequence of valid (m, 2) int64 planes and m float64 angles,
        # both C-contiguous, as the Jacobi kernel returns them
        seq = object.__new__(cls)
        seq._adopt(n, planes, thetas)
        return seq

    def _adopt(self, n: int, planes: np.ndarray, thetas: np.ndarray) -> None:
        planes.setflags(write=False)
        thetas.setflags(write=False)
        self._n, self._planes, self._thetas = n, planes, thetas

    @property
    def n(self) -> int:
        return self._n

    @functools.cached_property
    def rotations(self) -> tuple:
        return tuple(zip(self._planes[:, 0].tolist(),
                         self._planes[:, 1].tolist(), self._thetas.tolist()))

    @property
    def count(self) -> int:
        return len(self._thetas)

    def __eq__(self, other):
        if not isinstance(other, GivensSeq):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self._planes, other._planes)
                and np.array_equal(self._thetas, other._thetas))

    def __hash__(self):
        return hash((self.n, self._planes.tobytes(), self._thetas.tobytes()))

    def to_matrix(self) -> np.ndarray:
        """Product of the rotations, applied in order to the identity."""
        q_t = np.eye(self.n)
        _kernels.rotate_rows(q_t, self._planes, self._thetas)
        return q_t.T.copy()

    def low_frequency(self, perm, K: int) -> np.ndarray:
        """Columns perm[:K] of `to_matrix()`, as an n x K array.

        With Q = G_1 ... G_m, Q e_c = G_1 (... (G_m e_c)): the transposed
        rotations (same planes, negated angles) go in reverse order over the
        identity columns perm[:K], so each one costs O(K) instead of O(n).
        """
        block = np.zeros((self.n, K))
        block[np.asarray(perm[:K]), np.arange(K)] = 1.0
        _kernels.rotate_rows(block, np.ascontiguousarray(self._planes[::-1]),
                             -self._thetas[::-1])
        return block


@dataclass(frozen=True)
class ApproxFilter:
    """Low-pass filter T = V~_K V~_K^T, carried as its n x K factor V~_K."""

    givens: GivensSeq
    approx_eigs: np.ndarray
    perm: np.ndarray
    factor: np.ndarray
    bandwidth: int

    def __post_init__(self):
        f = np.asarray(self.factor, dtype=float)
        f.setflags(write=False)
        object.__setattr__(self, "factor", f)

    @property
    def n(self) -> int:
        return self.factor.shape[0]

    @property
    def filter(self) -> np.ndarray:
        """The dense n x n filter V~_K V~_K^T, built on each access.

        Selection and reconstruction work on `factor`; this is for
        references and quality figures.
        """
        return self.factor @ self.factor.T


def rotation_budget(n: int) -> int:
    """Default rotation count ceil(6 n log10 n)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return int(math.ceil(6.0 * n * math.log10(n)))


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
    """In-place two-sided rotation of a symmetric matrix (test/replay hook)."""
    _rotate_symmetric(w, p, q, math.cos(theta), math.sin(theta))


def greedy_jacobi(lap: Laplacian, J: int, tol: float = OFFDIAG_TOL):
    """Greedy Jacobi diagonalization truncated at J rotations.

    Each step zeroes the largest off-diagonal entry of the working matrix
    (ties: smallest row, then smallest column), which lowers the squared
    off-diagonal norm by exactly 2 W_pq^2.  Stops early once all
    off-diagonal magnitudes fall to `tol`.

    Returns (GivensSeq, approximate eigenvalues sorted ascending, perm)
    where perm maps rotated coordinates to the ascending order.
    """
    if J < 0:
        raise ValueError("rotation budget must be nonnegative")
    w = np.array(lap.matrix, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"Laplacian must be square, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("Laplacian has non-finite entries")
    if not np.array_equal(w, w.T):
        raise ValueError("Laplacian must be exactly symmetric")
    n = w.shape[0]
    if n >= 2 and J > 0:
        seq = GivensSeq._from_arrays(n, *_kernels.greedy_jacobi_sweep(w, J, tol))
    else:
        seq = GivensSeq(n, ())
    # the kernel leaves the lower triangle stale; only the diagonal is used
    diag = np.diag(w).copy()
    perm = np.argsort(diag, kind="stable")
    return seq, diag[perm], perm


def lowpass_from_givens(givens: GivensSeq, perm, K: int,
                        approx_eigs=None) -> ApproxFilter:
    """Synthesize the approximate low-pass filter from a rotation sequence.

    The accumulated rotation product, with columns reordered by `perm`
    (ascending approximate eigenvalues), stands in for the eigenvector
    matrix; the filter is the outer product of its first K columns, and
    only those columns are built.
    """
    n = givens.n
    if not 1 <= K <= n:
        raise ValueError(f"bandwidth K={K} out of range [1, {n}]")
    perm = np.asarray(perm, dtype=np.intp)
    if perm.shape != (n,) or sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    eigs = None if approx_eigs is None else np.asarray(approx_eigs, dtype=float)
    return ApproxFilter(givens, eigs, perm, givens.low_frequency(perm, K), K)


def approximate_lowpass(lap: Laplacian, K: int, J: int | None = None) -> ApproxFilter:
    """Eigendecomposition-free low-pass filter; J defaults to ceil(6 n log10 n)."""
    if J is None:
        J = rotation_budget(lap.n)
    seq, eigs, perm = greedy_jacobi(lap, J)
    return lowpass_from_givens(seq, perm, K, approx_eigs=eigs)


def exact_lowpass(basis: SpectralBasis, K: int) -> np.ndarray:
    """Ideal low-pass filter V_K V_K^T (an orthogonal projector of rank K)."""
    vk = basis.low_frequency(K)
    return vk @ vk.T


def offdiag_sq_norm(mat: np.ndarray) -> float:
    """Squared Frobenius norm of the off-diagonal part."""
    return float((mat ** 2).sum() - (np.diag(mat) ** 2).sum())


def save_givens_csv(givens: GivensSeq, path) -> None:
    """Write rotations as CSV rows `p,q,theta` (round-trip float repr)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("p,q,theta\n")
        for p, q, theta in givens.rotations:
            fh.write(f"{p},{q},{theta!r}\n")


def load_givens_csv(path, n: int) -> GivensSeq:
    rotations = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "p,q,theta":
            raise ValueError(f"{path}: expected header 'p,q,theta', got {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            p, q, theta = line.split(",")
            rotations.append((int(p), int(q), float(theta)))
    return GivensSeq(n, tuple(rotations))
