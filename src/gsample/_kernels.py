"""ctypes binding of the compiled kernels in `_kernels.c`.

The C file is compiled once with gcc and cached next to this module,
keyed by a hash of the source and the flags; later imports only load the
cached library, and installing a new build deletes the builds of earlier
sources.  A failed build raises ImportError with the compiler's message.
ctypes releases the interpreter lock for the duration of each call, and
the kernels keep no state, so threads may call them at once on different
buffers; the worker processes `bench.run_experiment` forks use the
library their parent loaded.

The kernels take raw addresses; the wrappers here check each array's
type, shape and layout first.  (ndpointer argtypes would check on every
call too, but each check goes through ctypes.cast, which leaves the
argument array in a reference cycle until the garbage collector runs.)
`greedy_pass` runs a whole greedy selection in one call; `AgodScan` and
`FagodScan` bind its argmin scans to the buffers of one numpy state, and
check them once, when they are bound.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernels.c")
_CACHE = Path(__file__).with_name("_kernel_cache")
# No -ffast-math, no -march=native, no FMA contraction: the kernels must
# round every product on its own, as numpy does.  -O3 vectorises the
# greedy passes' update loops, which -O2 leaves scalar.
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

# Rotations recorded per kernel call; bounds the output buffers for huge
# budgets that stop early.
_CHUNK = 1 << 16


def _build() -> Path:
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(_FLAGS).encode()).hexdigest()[:16]
    lib = _CACHE / f"_kernels-{key}.so"
    if lib.exists():
        return lib
    _CACHE.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=_CACHE)
    os.close(fd)
    try:
        done = subprocess.run(["gcc", *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise ImportError(f"building {_SOURCE.name} failed:\n{done.stderr}")
        os.replace(tmp, lib)
    except OSError as exc:
        raise ImportError(f"building {_SOURCE.name} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # builds of earlier sources are never loaded again
    for stale in _CACHE.glob("_kernels-*.so"):
        if stale != lib:
            with contextlib.suppress(OSError):
                stale.unlink()
    return lib


def _load():
    lib = ctypes.CDLL(str(_build()))
    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    lib.greedy_jacobi_sweep.argtypes = [ptr, i64, ptr, ptr, ptr, i64, f64,
                                        ctypes.c_int, ptr, ptr]
    lib.greedy_jacobi_sweep.restype = i64
    lib.rotate_rows.argtypes = [ptr, i64, i64, ptr, ptr]
    lib.rotate_rows.restype = None
    lib.knn.argtypes = [ptr, i64, i64, ptr, ptr, ptr]
    lib.knn.restype = None
    lib.agod_argmin.argtypes = [ptr, ptr, ptr, ptr, i64, i64, ptr, ptr]
    lib.agod_argmin.restype = i64
    lib.fagod_argmin.argtypes = [ptr, ptr, ptr, ptr, i64, i64, f64, ptr, ptr]
    lib.fagod_argmin.restype = i64
    lib.greedy_pass.argtypes = [ctypes.c_int, ptr, i64, i64, i64, f64, i64,
                                ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
                                ptr, ptr]
    lib.greedy_pass.restype = i64
    return lib


def _address(array: np.ndarray, dtype, shape) -> int:
    """The data address of `array`, once it is checked to be a C-contiguous
    `dtype` array of `shape`."""
    if array.dtype != dtype or array.shape != shape \
            or not array.flags.c_contiguous:
        raise ValueError(f"kernel buffer must be a C-contiguous "
                         f"{np.dtype(dtype)} array of shape {shape}, got "
                         f"{array.dtype} {array.shape}")
    return array.ctypes.data


_LIB = _load()


def greedy_jacobi_sweep(w: np.ndarray, budget: int, tol: float):
    """Greedy Jacobi rotations of w in place, at most `budget` of them.

    w must be a C-contiguous float64 n x n matrix with n >= 2 whose
    diagonal and strict upper triangle hold a finite symmetric matrix.
    The kernel reads and writes only those entries: the lower triangle is
    never read and is left stale on return, so only the diagonal and the
    upper triangle of w are the rotated matrix.  Returns (planes, thetas):
    an (m, 2) int64 array of the (p, q) pairs and the m angles, in order.

    The sweep's O(n) bookkeeping, the per-row maxima and the pivot tree
    over them, lives in buffers allocated here for each sweep.  The kernel
    rebuilds the tree on every call, so a sweep split into `_CHUNK`-sized
    calls continues where the last call stopped.
    """
    n = w.shape[0]
    w_at = _address(w, np.float64, (n, n))
    best_col = np.empty(n - 1, dtype=np.int64)
    best_val = np.empty(n - 1)
    # the pivot tree: 2m entries for the smallest power of two m >= n - 1
    tree = np.empty(2 << (n - 2).bit_length(), dtype=np.int64)
    planes, thetas = [], []
    done = 0
    while done < budget:
        size = min(budget - done, _CHUNK)
        pl, th = np.empty((size, 2), dtype=np.int64), np.empty(size)
        got = _LIB.greedy_jacobi_sweep(
            w_at, n, best_col.ctypes.data, best_val.ctypes.data,
            tree.ctypes.data, size, tol, done == 0, pl.ctypes.data,
            th.ctypes.data)
        planes.append(pl[:got])
        thetas.append(th[:got])
        done += got
        if got < size:
            break
    # freed before the outputs are joined, so that the bookkeeping adds
    # nothing to the sweep's peak allocation
    del best_col, best_val, tree
    if not planes:
        return np.empty((0, 2), dtype=np.int64), np.empty(0)
    if len(planes) == 1 and got == size:  # one full call: its own buffers
        return pl, th
    return np.concatenate(planes), np.concatenate(thetas)


def rotate_rows(qt: np.ndarray, planes: np.ndarray, thetas: np.ndarray) -> None:
    """Rotate the rows of the C-contiguous matrix qt in place, in order.

    Each (p, q) pair must satisfy 0 <= p < q < qt.shape[0]; the rows may
    have any length.
    """
    m = len(thetas)
    _LIB.rotate_rows(_address(qt, np.float64, (len(qt), qt.shape[1])),
                     qt.shape[1], m,
                     _address(planes, np.int64, (m, 2)),
                     _address(thetas, np.float64, (m,)))


def knn(pos: np.ndarray, k: int):
    """The k + 1 nearest of the n points in the rows of pos to each point.

    pos must be a C-contiguous float64 n x 2 array and 0 <= k < n.
    Returns (near, near_dist), both n x (k + 1): the nodes, in the order
    of np.argsort(dist, axis=1, kind="stable")[:, :k + 1] for the
    distances dist[i, j] = sqrt(dx*dx + dy*dy), dx = x_i - x_j, and
    those distances, bit for bit.  Row i starts with i itself unless a
    smaller node shares its position.
    """
    n = pos.shape[0]
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    near = np.empty((n, k + 1), dtype=np.int64)
    near_dist = np.empty((n, k + 1))
    scratch = np.empty(k + 1)
    _LIB.knn(_address(pos, np.float64, (n, 2)), n, k + 1, near.ctypes.data,
             near_dist.ctypes.data, scratch.ctypes.data)
    return near, near_dist


class AgodScan:
    """The agod argmin kernel, bound to one state's buffers.

    u (n x K) holds U = V Z^-1, g the n values g_j = u_j . v_j and `diag`,
    the scan's own, diag Z^-1.  Fill `diag`, then call: the result is the
    free node (taken[j] false) of smallest max_k (diag_k - u_jk^2 /
    (1 + g_j)) and that value, bitwise as the numpy scan of
    `LoadedGramState` finds them.  u, g and taken (n bools) must stay in
    place.  Raises ValueError when a value the scan reads is not finite
    or no node is free.
    """

    def __init__(self, u: np.ndarray, g: np.ndarray, taken: np.ndarray):
        n, K = u.shape
        self.diag = np.empty(K)
        self._order, self._value = np.empty(K, dtype=np.int64), np.empty(1)
        self._buffers = (u, g, taken)
        self._args = (_address(u, np.float64, (n, K)),
                      _address(g, np.float64, (n,)),
                      self.diag.ctypes.data,
                      _address(taken, np.bool_, (n,)), n, K,
                      self._order.ctypes.data, self._value.ctypes.data)

    def __call__(self):
        j = _LIB.agod_argmin(*self._args)
        if j < 0:
            raise ValueError("agod candidate objectives are not finite, "
                             "or no node is free")
        return j, float(self._value[0])


class FagodScan:
    """The factored fagod argmin kernel, bound to one state's buffers.

    b holds B = V_S Z^-1 V^T in its first m rows (n columns), d the m
    entries of diag (T_SS + mu I)^-1, a the n values v_j Z^-1 v_j^T.
    Calling with m gives the free node of smallest max(o_j,
    max_i (B_ij^2 o_j + d_i)), o_j = 1 / (mu (1 + a_j)), and that value,
    bitwise as the numpy scan of `FactoredFagodState` finds them.  The
    arrays must stay in place; a state that replaces one binds a new
    scan.  Raises ValueError when a value the scan reads is not finite
    or no node is free.
    """

    def __init__(self, b: np.ndarray, d: np.ndarray, a: np.ndarray,
                 taken: np.ndarray, mu: float):
        rows, n = b.shape
        self._order, self._value = np.empty(rows, dtype=np.int64), np.empty(1)
        self._buffers = (b, d, a, taken)
        self._head = (_address(b, np.float64, (rows, n)),
                      _address(d, np.float64, (rows,)),
                      _address(a, np.float64, (n,)),
                      _address(taken, np.bool_, (n,)), n)
        self._tail = (float(mu), self._order.ctypes.data,
                      self._value.ctypes.data)
        self._rows = rows

    def __call__(self, m: int):
        if not 0 <= m <= self._rows:
            raise ValueError(f"{m} live rows out of range [0, {self._rows}]")
        j = _LIB.fagod_argmin(*self._head, m, *self._tail)
        if j < 0:
            raise ValueError("fagod candidate objectives are not finite, "
                             "or no node is free")
        return j, float(self._value[0])


_PASSES = {"agod": 0, "fagod": 1, "dopt": 2, "aopt": 3}


def greedy_pass(method: str, factor: np.ndarray, mu: float, M: int,
                zinv: np.ndarray, g: np.ndarray, u: np.ndarray | None = None,
                nrm: np.ndarray | None = None):
    """M greedy steps of `method` (agod, fagod, dopt or aopt) on the n x K
    factor V, in one kernel call.

    zinv (K x K), g (n), u (n x K, agod and aopt only) and nrm (n, aopt
    only) hold Z^-1, g_j = v_j Z^-1 v_j^T, U = V Z^-1 and |u_j|^2 of the
    empty selection, and are updated in place.  factor is read where it
    lies when its rows are evenly spaced float64 runs, as in a column
    slice; any other layout is copied.  Returns (picks, trace), the M
    nodes and their objectives.  Raises ValueError when a value a step
    reads is not finite.
    """
    n, K = factor.shape
    if (u is None) != (method in ("dopt", "fagod")) \
            or (nrm is None) != (method != "aopt"):
        raise ValueError(f"wrong buffers for a {method} pass")
    if factor.dtype != np.float64 or (K > 1 and factor.strides[1] != 8) \
            or factor.strides[0] < 0 or factor.strides[0] % 8:
        factor = np.ascontiguousarray(factor, dtype=np.float64)
    b = np.empty((M, n)) if method == "fagod" else None
    d = np.empty(M) if method == "fagod" else None
    taken = np.zeros(n, dtype=np.uint8)
    work = np.empty(2 * K + n + M)
    order = np.empty(max(K, M), dtype=np.int64)
    picks, trace = np.empty(M, dtype=np.int64), np.empty(M)
    done = _LIB.greedy_pass(
        _PASSES[method], factor.ctypes.data, factor.strides[0] // 8, n, K,
        float(mu), M, _address(zinv, np.float64, (K, K)),
        _address(g, np.float64, (n,)),
        None if u is None else _address(u, np.float64, (n, K)),
        None if nrm is None else _address(nrm, np.float64, (n,)),
        None if b is None else b.ctypes.data,
        None if d is None else d.ctypes.data, taken.ctypes.data,
        work.ctypes.data, order.ctypes.data, picks.ctypes.data,
        trace.ctypes.data)
    if done < M:
        raise ValueError(f"{method} candidate objectives are not finite at "
                         f"step {done + 1}")
    return picks, trace
