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

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graphs import Laplacian
from .spectral import SpectralBasis, _check_bandwidth

# Off-diagonal magnitudes at or below this stop the Jacobi sweep early.
OFFDIAG_TOL = 1e-12


class GivensSeq:
    """Ordered Givens rotations (p, q, theta) acting on an n-point space.

    `planes` is an (m, 2) int64 array of the (p, q) pairs, 0 <= p < q < n,
    and `thetas` holds the m angles; both are read-only, and the kernels
    read them as they are.
    """

    def __init__(self, n: int, planes, thetas):
        planes = np.ascontiguousarray(planes, dtype=np.int64)
        thetas = np.ascontiguousarray(thetas, dtype=float)
        if planes.ndim != 2 or planes.shape[1] != 2 \
                or thetas.shape != (planes.shape[0],):
            raise ValueError(f"need (m, 2) planes and m angles, got shapes "
                             f"{planes.shape} and {thetas.shape}")
        p, q = planes[:, 0], planes[:, 1]
        bad = ~((0 <= p) & (p < q) & (q < n))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"rotation plane ({p[i]}, {q[i]}) out of range for n={n}")
        planes.setflags(write=False)
        thetas.setflags(write=False)
        self.n, self.planes, self.thetas = n, planes, thetas

    @property
    def rotations(self) -> tuple:
        """The rotations as (int, int, float) triples, in order."""
        return tuple(zip(self.planes[:, 0].tolist(),
                         self.planes[:, 1].tolist(), self.thetas.tolist()))

    @property
    def count(self) -> int:
        return len(self.thetas)

    def low_frequency(self, perm, K: int) -> np.ndarray:
        """Columns perm[:K] of the rotation product Q = G_1 ... G_m, as an
        n x K array.

        Q e_c = G_1 (... (G_m e_c)): the transposed rotations (same planes,
        negated angles) go in reverse order over the identity columns
        perm[:K], so each one costs O(K) instead of O(n).
        """
        block = np.zeros((self.n, K))
        block[np.asarray(perm[:K]), np.arange(K)] = 1.0
        _kernels.rotate_rows(block, np.ascontiguousarray(self.planes[::-1]),
                             -self.thetas[::-1])
        return block


@dataclass(frozen=True)
class ApproxFilter:
    """Low-pass filter T = V~_K V~_K^T as its n x K factor V~_K; perfbench's
    tracer tells trials apart by `givens`, the rotations behind it."""

    givens: GivensSeq
    approx_eigs: np.ndarray
    factor: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.factor, dtype=float)
        f.setflags(write=False)
        object.__setattr__(self, "factor", f)

    @property
    def bandwidth(self) -> int:
        return self.factor.shape[1]

    @property
    def filter(self) -> np.ndarray:
        """The dense n x n filter, built on each access; selection and
        reconstruction read `factor`, references and quality figures this."""
        return self.factor @ self.factor.T


def rotation_budget(n: int) -> int:
    """Default rotation count ceil(6 n log10 n)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return int(math.ceil(6.0 * n * math.log10(n)))


def greedy_jacobi(lap: Laplacian, J: int):
    """Greedy Jacobi diagonalization truncated at J rotations.

    Each step zeroes the largest off-diagonal entry of the working matrix
    (ties: smallest row, then smallest column), which lowers the squared
    off-diagonal norm by exactly 2 W_pq^2.  Stops early once all
    off-diagonal magnitudes fall to OFFDIAG_TOL.  The working matrix is
    the Laplacian's packed strict upper triangle and its diagonal, half
    the memory of an n x n array; `Laplacian.diagonal` also checks L's
    row sums.  J is checked before the pair is written.

    Returns (GivensSeq, approximate eigenvalues sorted ascending, perm)
    where perm maps rotated coordinates to the ascending order.
    """
    _check_budget(J)
    return _greedy_jacobi(lap.packed_upper(), lap.diagonal(), J)


def _check_budget(J) -> None:
    if not isinstance(J, numbers.Integral):
        raise ValueError(f"rotation budget must be an integer, got {J!r}")
    if J < 0:
        raise ValueError("rotation budget must be nonnegative")


def _greedy_jacobi(upper: np.ndarray, diag: np.ndarray, J: int):
    """`greedy_jacobi` on a Laplacian's packed strict upper triangle and
    its checked diagonal (`Laplacian.packed_upper`, `Laplacian.diagonal`),
    which it rotates in place, checking J again for the thread `bench`
    runs it on.  The kernel call releases the interpreter lock.  Returns
    greedy_jacobi's triple.
    """
    _check_budget(J)
    planes, thetas = _kernels.greedy_jacobi_sweep(upper, diag, J, OFFDIAG_TOL)
    seq = GivensSeq(len(diag), planes, thetas)
    perm = np.argsort(diag, kind="stable")
    return seq, diag[perm], perm


def lowpass_from_givens(givens: GivensSeq, perm, K: int,
                        approx_eigs) -> ApproxFilter:
    """Synthesize the approximate low-pass filter from a rotation sequence.

    The accumulated rotation product, with columns reordered by `perm`
    (ascending approximate eigenvalues), stands in for the eigenvector
    matrix; the filter is the outer product of its first K columns, and
    only those columns are built.
    """
    n = givens.n
    _check_bandwidth(K, n)
    perm = np.asarray(perm, dtype=np.intp)
    if perm.shape != (n,) or sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return ApproxFilter(givens, np.asarray(approx_eigs, dtype=float),
                        givens.low_frequency(perm, K))


def approximate_lowpass(lap: Laplacian, K: int, J: int | None = None) -> ApproxFilter:
    """Eigendecomposition-free low-pass filter; J defaults to ceil(6 n log10 n)."""
    _check_bandwidth(K, lap.n)
    if J is None:
        J = rotation_budget(lap.n)
    seq, eigs, perm = greedy_jacobi(lap, J)
    return lowpass_from_givens(seq, perm, K, approx_eigs=eigs)


def exact_lowpass(basis: SpectralBasis, K: int) -> np.ndarray:
    """Ideal low-pass filter V_K V_K^T (an orthogonal projector of rank K)."""
    vk = basis.low_frequency(K)
    return vk @ vk.T
