"""Sampling-set selection strategies side by side.

Runs the worst-case-variance greedy family (loaded max-diag criterion and
its filter-submatrix variant) next to the trace/log-det/spectral-norm
baselines and random sampling, all on the same sensor graph.
"""

import os
import tempfile

import numpy as np

from gsample import (DEFAULT_MU, build_laplacian, eigendecompose,
                     exact_lowpass, gen_sensor, greedy_aoptimal,
                     greedy_doptimal, greedy_eoptimal, greedy_select,
                     objective_agod, random_select)
from gsample.selection import save_sampling_csv

n, K, M = 60, 6, 12
graph = gen_sensor(n, 6, seed=3)
basis = eigendecompose(build_laplacian(graph))
T = exact_lowpass(basis, K)

selections = {
    "agod (max-diag, loaded)": greedy_select("agod", M, basis=basis, K=K,
                                             mu=DEFAULT_MU),
    "fagod (filter submatrix)": greedy_select("fagod", M, filt=T,
                                              mu=DEFAULT_MU),
    "dopt (log-det)": greedy_doptimal(basis, K, DEFAULT_MU, M),
    "aopt (trace)": greedy_aoptimal(basis, K, DEFAULT_MU, M),
    "eopt (sigma_min)": greedy_eoptimal(basis, K, M),
    "rand-uniform": random_select("uniform", basis, K, M, seed=0),
    "rand-leverage": random_select("leverage", basis, K, M, seed=0),
}

print(f"sensor graph n={n}, bandwidth K={K}, budget M={M}, mu=1/99\n")
print(f"{'method':26s} {'first 6 picks':22s} {'max-diag objective at M':>24s}")
for name, sel in selections.items():
    # score every method on the same worst-case-variance criterion
    score = objective_agod(sel.indices, basis, K, DEFAULT_MU)
    picks = ",".join(str(i) for i in sel.indices[:6])
    print(f"{name:26s} [{picks:20s}] {score:24.4f}")

agod = selections["agod (max-diag, loaded)"]
print("\nper-step objective trace of the loaded max-diag greedy:")
print("  " + "  ".join(f"{v:.3f}" for v in agod.objective_trace))

path = os.path.join(tempfile.mkdtemp(prefix="gsample-demo-"),
                    "agod_selection.csv")
save_sampling_csv(agod, path)
print(f"\nselection written to {path} (step,node,objective)")
