"""ctypes binding of the compiled filter loops in `_kernels.c`.

The C file is compiled once with gcc and cached next to this module,
keyed by a hash of the source and the flags; later imports only load the
cached library, and installing a new build deletes the builds of earlier
sources.  A failed build raises ImportError with the compiler's message.
ctypes releases the interpreter lock for the duration of each call, and
the kernels keep no state, so threads may call them at once on different
buffers.
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
# round every product on its own, as numpy does.
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

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
    i64, f64 = ctypes.c_int64, ctypes.c_double

    def array(dtype, ndim, writeable=True):
        flags = "C_CONTIGUOUS,WRITEABLE" if writeable else "C_CONTIGUOUS"
        return np.ctypeslib.ndpointer(dtype=dtype, ndim=ndim, flags=flags)

    lib.greedy_jacobi_sweep.argtypes = [
        array(np.float64, 2), i64, array(np.int64, 1), array(np.float64, 1),
        array(np.int64, 1), i64, f64, ctypes.c_int, array(np.int64, 2),
        array(np.float64, 1)]
    lib.greedy_jacobi_sweep.restype = i64
    lib.rotate_rows.argtypes = [
        array(np.float64, 2), i64, i64, array(np.int64, 2, writeable=False),
        array(np.float64, 1, writeable=False)]
    lib.rotate_rows.restype = None
    return lib


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
    best_col = np.empty(n - 1, dtype=np.int64)
    best_val = np.empty(n - 1)
    # the pivot tree: 2m entries for the smallest power of two m >= n - 1
    tree = np.empty(2 << (n - 2).bit_length(), dtype=np.int64)
    planes, thetas = [], []
    done = 0
    while done < budget:
        size = min(budget - done, _CHUNK)
        pl, th = np.empty((size, 2), dtype=np.int64), np.empty(size)
        got = _LIB.greedy_jacobi_sweep(w, n, best_col, best_val, tree, size,
                                       tol, done == 0, pl, th)
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
    return np.concatenate(planes), np.concatenate(thetas)


def rotate_rows(qt: np.ndarray, planes: np.ndarray, thetas: np.ndarray) -> None:
    """Rotate the rows of the C-contiguous matrix qt in place, in order.

    Each (p, q) pair must satisfy 0 <= p < q < qt.shape[0]; the rows may
    have any length.
    """
    _LIB.rotate_rows(qt, qt.shape[1], len(thetas), planes, thetas)
