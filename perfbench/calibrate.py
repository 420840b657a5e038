"""Calibration kernel: a fixed piece of work timed next to every op.

On a small shared machine the same op runs up to 1.7x slower in spells that
last from seconds to minutes, and CPU time slows with wall time, so neither
a run's fastest op nor its CPU time is steady.  The kernel mimics the
program's two kinds of work: a Python loop of Givens rotations on an n x n
array (as in Jacobi) and a dense product and eigendecomposition (as in the
eigensolver and filter synthesis).  A time divided by the kernel's time,
measured just before and after it, cancels most of the machine's speed.

`scaled` turns that ratio back into a time: what the op would take on a
machine where the kernel takes `reference_ms`.  Each workload's reference is
the kernel's time in the fast state of the 2-vCPU VM the benchmark was tuned
on, so scaled times read as ordinary times there.  The kernel does not use
the program, so a change to the program moves only the numerator.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Kernel:
    n: int            # size of the rotated array
    rotations: int    # Python-loop rotations per run
    dense: int        # size of the dense product and eigendecomposition
    reference_ms: float

    def prepare(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((self.n, self.n))
        sym = (a + a.T) / 2
        steps = []
        for _ in range(self.rotations):
            p, q = (int(v) for v in rng.choice(self.n, 2, replace=False))
            theta = float(rng.uniform(-1.0, 1.0))
            steps.append((p, q, math.cos(theta), math.sin(theta)))
        return sym, steps

    def run(self, prepared) -> float:
        """Seconds for one pass of the kernel."""
        sym, steps = prepared
        w = sym.copy()
        dense = sym[:self.dense, :self.dense]
        start = time.perf_counter()
        for p, q, c, s in steps:
            rp, rq = w[p].copy(), w[q].copy()
            w[p], w[q] = c * rp - s * rq, s * rp + c * rq
            cp, cq = w[:, p].copy(), w[:, q].copy()
            w[:, p], w[:, q] = c * cp - s * cq, s * cp + c * cq
            int(np.argmax(np.abs(w[p])))
        np.linalg.eigh(dense @ dense)
        return time.perf_counter() - start


class Calibration:
    """Times the kernel on demand and scales other times by it."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._prepared = kernel.prepare()
        self.kernel.run(self._prepared)  # first pass pays for page faults

    def seconds(self) -> float:
        return self.kernel.run(self._prepared)

    def scaled(self, seconds: float, kernel_seconds: float) -> float:
        """`seconds` at the speed where the kernel takes its reference time."""
        return seconds * self.kernel.reference_ms / (kernel_seconds * 1e3)
