"""ctypes binding of the compiled kernels in `_kernels.c`.

The C file is compiled once with gcc and cached next to this module,
keyed by a hash of the source and the flags; later imports only load the
cached library, and installing a new build deletes the builds of earlier
sources.  A failed build raises ImportError with the compiler's message.
ctypes releases the interpreter lock for the duration of each call, and
no kernel keeps state from call to call, so threads may call them at
once on different buffers; the worker processes `bench.run_experiment`
forks use the library their parent loaded.

The kernels take raw addresses; the wrappers here check each array's
type, shape and layout first.  (ndpointer argtypes would check on every
call too, but each check goes through ctypes.cast, which leaves the
argument array in a reference cycle until the garbage collector runs.)
`greedy_pass` runs a whole greedy selection in one call; the agod and
fagod argmin scans run only inside it, and its numpy reference, the
loaded-Gram states, lives in `gsample.oracle`.  `laplacian_diagonal`
is the one definition of a Laplacian's diagonal, and `seed_state` and
`leverage_draw` repeat numpy's own arithmetic bit for bit: the hash of
`SeedSequence`, and the picks of `Generator.choice` with weights.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
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
    # only a build needs these, and most imports find the cached library
    import subprocess
    import tempfile

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
    lib.greedy_jacobi_sweep.argtypes = [ptr, ptr, i64, ptr, ptr, ptr, ptr,
                                        i64, f64, ptr, ptr]
    lib.greedy_jacobi_sweep.restype = i64
    lib.rotate_rows.argtypes = [ptr, i64, i64, ptr, ptr]
    lib.rotate_rows.restype = None
    lib.knn.argtypes = [ptr, i64, i64, ptr, ptr, ptr]
    lib.knn.restype = None
    lib.components.argtypes = [i64, ptr, ptr, i64, ptr]
    lib.components.restype = i64
    lib.greedy_pass.argtypes = [ctypes.c_int, ptr, i64, i64, f64, i64,
                                ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
                                ptr, ptr]
    lib.greedy_pass.restype = i64
    lib.seed_state.argtypes = [ctypes.c_char_p, i64, i64, ctypes.c_int, ptr]
    lib.seed_state.restype = None
    lib.leverage_draw.argtypes = [ptr, i64, i64, ptr, ptr, ptr, ptr]
    lib.leverage_draw.restype = None
    lib.laplacian_diagonal.argtypes = [i64, ptr, ptr, ptr, ptr, i64, ptr, ptr]
    lib.laplacian_diagonal.restype = None
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


def greedy_jacobi_sweep(upper: np.ndarray, diag: np.ndarray, budget: int,
                        tol: float):
    """Greedy Jacobi rotations, in place, of the symmetric n x n matrix
    held as its packed strict upper triangle and its diagonal; at most
    `budget` of them.

    diag must be a C-contiguous float64 array of n >= 2 entries and upper
    one of n (n - 1) / 2, the rows W[i, i+1:] one after the other (row i
    starts at offset i (2n - i - 1) / 2), and together they must hold a
    finite matrix.  The kernel reads and writes nothing else.  Returns
    (planes, thetas): an (m, 2) int64 array of the (p, q) pairs and the m
    angles, in order; m = 0 when budget is 0.

    The sweep's O(n) bookkeeping, the row offsets, the per-row maxima and
    the pivot tree over them, lives in scratch buffers allocated here for
    each sweep.  Every kernel call fills them afresh from the triangle,
    so a sweep split into `_CHUNK`-sized calls makes the rotations of one
    call.
    """
    n = diag.shape[0]
    if n < 2:
        raise ValueError(f"the sweep needs n >= 2, got n={n}")
    d_at = _address(diag, np.float64, (n,))
    u_at = _address(upper, np.float64, (n * (n - 1) // 2,))
    off = np.empty(n - 1, dtype=np.int64)
    best_col = np.empty(n - 1, dtype=np.int64)
    best_val = np.empty(n - 1)
    # the pivot tree: 2m entries for the smallest power of two m >= n - 1
    tree = np.empty(2 << (n - 2).bit_length(), dtype=np.int64)
    planes, thetas = [], []
    done = 0
    while True:
        size = min(budget - done, _CHUNK)
        pl, th = np.empty((size, 2), dtype=np.int64), np.empty(size)
        got = _LIB.greedy_jacobi_sweep(
            u_at, d_at, n, off.ctypes.data, best_col.ctypes.data,
            best_val.ctypes.data, tree.ctypes.data, size, tol,
            pl.ctypes.data, th.ctypes.data)
        planes.append(pl[:got])
        thetas.append(th[:got])
        done += got
        if got < size or done == budget:
            break
    # freed before the outputs are joined, so that the bookkeeping adds
    # nothing to the sweep's peak allocation
    del off, best_col, best_val, tree
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


def components(n: int, rows: np.ndarray, cols: np.ndarray) -> int:
    """The number of connected components of the undirected graph on n
    nodes with the edges (rows[k], cols[k]), each listed in one or both
    directions: a union-find with path halving over the edge list.

    rows and cols are copied to int64 arrays unless they are ones, and
    every endpoint must lie in [0, n).
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    m = len(rows)
    if rows.shape != (m,) or cols.shape != (m,):
        raise ValueError(f"need two edge arrays of one length, got shapes "
                         f"{rows.shape} and {cols.shape}")
    if m and (min(rows.min(), cols.min()) < 0
              or max(rows.max(), cols.max()) >= n):
        raise ValueError(f"edge endpoint out of range [0, {n})")
    parent = np.empty(n, dtype=np.int64)
    return _LIB.components(n, rows.ctypes.data, cols.ctypes.data, m,
                           parent.ctypes.data)


_PASSES = {"agod": 0, "fagod": 1, "dopt": 2, "aopt": 3}


def greedy_pass(method: str, factor: np.ndarray, mu: float, M: int):
    """M greedy steps of `method` (agod, fagod, dopt or aopt) on the n x K
    factor V, in one kernel call.

    V is first copied to a C-ordered float64 array unless it is one, and
    Z^-1, g_j = v_j Z^-1 v_j^T, U = V Z^-1 (agod and aopt) and |u_j|^2
    (aopt) of the empty selection start from the numpy states' own
    expressions on that array: the first step scores their values bit
    for bit, and no output depends on V's layout.  Returns (picks,
    trace), the M nodes and their objectives.  Raises ValueError when a
    value a step reads is not finite.
    """
    factor = np.ascontiguousarray(factor, dtype=np.float64)
    n, K = factor.shape
    zinv = np.eye(K) / mu
    g = np.einsum("ij,ij->i", factor, factor) / mu
    u = factor @ zinv if method in ("agod", "aopt") else None
    nrm = np.einsum("ij,ij->i", u, u) if method == "aopt" else None
    b = np.empty((M, n)) if method == "fagod" else None
    d = np.empty(M) if method == "fagod" else None
    taken = np.zeros(n, dtype=np.uint8)
    work = np.empty(2 * K + n + M)
    order = np.empty(max(K, M), dtype=np.int64)
    picks, trace = np.empty(M, dtype=np.int64), np.empty(M)
    done = _LIB.greedy_pass(
        _PASSES[method], factor.ctypes.data, n, K,
        float(mu), M, zinv.ctypes.data, g.ctypes.data,
        None if u is None else u.ctypes.data,
        None if nrm is None else nrm.ctypes.data,
        None if b is None else b.ctypes.data,
        None if d is None else d.ctypes.data, taken.ctypes.data,
        work.ctypes.data, order.ctypes.data, picks.ctypes.data,
        trace.ctypes.data)
    if done < M:
        raise ValueError(f"{method} candidate objectives are not finite at "
                         f"step {done + 1}")
    return picks, trace


def seed_state(seed: int, n_words: int, wide: bool) -> np.ndarray:
    """`numpy.random.SeedSequence(seed).generate_state(n_words, dtype)`,
    bit for bit, for a nonnegative int seed: uint64 words when `wide`,
    uint32 ones otherwise.

    The seed goes to the kernel as its 32-bit words, least significant
    first, as many as numpy splits it into (one for 0).  The output is a
    fresh numpy array over a ctypes buffer: reading a numpy array's
    `ctypes.data` would cost more than the hash.
    """
    count = max(1, -(-seed.bit_length() // 32))
    out = ((ctypes.c_uint64 if wide else ctypes.c_uint32) * n_words)()
    _LIB.seed_state(seed.to_bytes(4 * count, "little"), count,
                    2 * n_words if wide else n_words, wide, out)
    return np.frombuffer(out, np.uint64 if wide else np.uint32)


def leverage_draw(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The nodes of a leverage draw, one per uniform: pick t is the one of
    `rng.choice(remaining, p=w / w.sum())` for the weights w of the
    nodes not yet drawn, in node order, when `rng.random()` returns
    uniforms[t], bit for bit.

    weights must be a float64 array of n finite, nonnegative values with
    a finite sum, at least len(uniforms) of them nonzero, and uniforms
    must lie in [0, 1); the caller checks that.  weights is copied and
    left as it is.
    """
    w = np.array(weights, dtype=np.float64)
    n, M = len(w), len(uniforms)
    if M > n:
        raise ValueError(f"cannot draw {M} of {n} nodes")
    u = np.ascontiguousarray(uniforms, dtype=np.float64)
    cdf = np.empty(n)
    remaining = np.empty(n, dtype=np.int64)
    picks = np.empty(M, dtype=np.int64)
    _LIB.leverage_draw(_address(w, np.float64, (n,)), n, M,
                       _address(u, np.float64, (M,)), cdf.ctypes.data,
                       remaining.ctypes.data, picks.ctypes.data)
    return picks


def laplacian_diagonal(n: int, rows: np.ndarray, cols: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
    """The diagonal of the Laplacian of a `Graph`'s edge list as a fresh
    n-vector: 0.0 minus each row's off-diagonal part summed as numpy sums
    a row, in O(n + E) memory and O(n^2) time.

    rows, cols and weights must be C-contiguous int64, int64 and float64
    arrays of one length, listing each edge once with rows[k] < cols[k],
    in (i, j) order; every endpoint must lie in [0, n).
    """
    m = len(weights)
    if m and (rows.min() < 0 or cols.max() >= n):
        raise ValueError(f"edge endpoint out of range [0, {n})")
    by_col = np.argsort(cols)
    row, diag = np.zeros(n), np.empty(n)
    _LIB.laplacian_diagonal(n, _address(rows, np.int64, (m,)),
                            _address(cols, np.int64, (m,)),
                            _address(weights, np.float64, (m,)),
                            by_col.ctypes.data, m, row.ctypes.data,
                            diag.ctypes.data)
    return diag
