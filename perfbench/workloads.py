"""The benchmark's workloads: spec text, op batch size and op seeds.

Every op is one `gsample.bench.run_experiment` call on a spec parsed by
`gsample.bench.parse_spec_text`.  The spec text lives in `specs/` next to
this file, so editing the repository's own `specs/` changes no workload.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path

from calibrate import Kernel

SPEC_DIR = Path(__file__).resolve().parent / "specs"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    # workloads with the same stream run on the same op base seeds, hence
    # the same graphs and signals
    seed_stream: str
    spec_file: str
    trials_per_op: int
    # rmse_mean covers the rows of an untimed panel of ops on base seeds
    # 0 .. accuracy_ops - 1: the same inputs in every run, so it moves only
    # when the program's numerics do.  Its first op is the warm-up.
    accuracy_ops: int
    # calibration kernel, weighted like the op: rotation-heavy for the
    # Jacobi workloads, dense-heavy for the eigensolver one; about 5-10% of
    # an op's time
    kernel: Kernel

    @property
    def spec_text(self) -> str:
        return (SPEC_DIR / self.spec_file).read_text(encoding="utf-8")

    def op_spec_text(self, base_seed: int) -> str:
        return (self.spec_text
                + f"trials = {self.trials_per_op}\nbase_seed = {base_seed}\n")


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("desk", "desk", "desk.spec", 2 * nproc(), 4,
             Kernel(n=200, rotations=2500, dense=200, reference_ms=34.3)),
    Workload("eigfree-800", "n800", "eigfree-800.spec", 1, 3,
             Kernel(n=800, rotations=1500, dense=300, reference_ms=48.7)),
    Workload("spectral-800", "n800", "spectral-800.spec", 1, 8,
             Kernel(n=800, rotations=100, dense=400, reference_ms=19.5)),
)}


def op_seeds(workload: Workload, seed: int):
    """Endless stream of timed op base seeds drawn from the workload seed.

    The seeds stay clear of the accuracy panel's base seeds, which also
    serve as the untimed warm-up.
    """
    rnd = random.Random(f"{workload.seed_stream}:{seed}")
    while True:
        s = rnd.getrandbits(32)
        if s >= workload.accuracy_ops:
            yield s
