"""Run metadata recorded next to every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy as np
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def collect(root: Path, workload, spec, nproc: int) -> dict:
    import numpy as np
    import scipy

    from gsample.bench import resolve_j, resolve_k
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(root),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workload": workload.name,
        "n": spec.n,
        "K": resolve_k(spec, spec.n),
        "J": resolve_j(spec, spec.n),
        "methods": list(spec.methods),
        "budgets": list(spec.sweep),
        "trials_per_op": spec.trials,
    }
