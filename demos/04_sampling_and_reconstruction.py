"""End-to-end pipeline: select, observe with noise, reconstruct.

Compares the three estimators on noisy samples of a bandlimited signal,
including the filter-domain estimate that needs no eigendecomposition,
then averages reconstruction RMSE over a small Monte Carlo run.
"""

import numpy as np

from gsample import (DEFAULT_MU, approximate_lowpass, biased_reconstruct,
                     blue_reconstruct, build_laplacian, child_seed,
                     eigendecompose, filter_reconstruct, gen_sensor,
                     gen_signal, greedy_select, observe, random_select, rmse)

n, K, sigma2 = 80, 10, 5e-3
graph = gen_sensor(n, 6, seed=17)
lap = build_laplacian(graph)
basis = eigendecompose(lap)
approx = approximate_lowpass(lap, K)  # no eigendecomposition needed

print(f"sensor graph n={n}, K={K}, noise variance {sigma2}\n")

signal = gen_signal("GS1", basis, seed=5)
selection = greedy_select("fagod", K, filt=approx, mu=DEFAULT_MU)
obs = observe(signal, selection.indices, sigma2, seed=11)
print(f"selected nodes (budget = bandwidth): {selection.indices}")

recons = {
    "blue (unbiased pseudo-inverse)": blue_reconstruct(obs, basis, K),
    "biased (loaded spectral)": biased_reconstruct(obs, basis, K, DEFAULT_MU),
    "filter-domain (approx T)": filter_reconstruct(obs, approx, DEFAULT_MU),
}
for name, rec in recons.items():
    print(f"  {name:32s} rmse = {rmse(rec.values, signal.values):.4f}")

print("\nMonte Carlo over 30 signals, greedy vs uniform random selection:")
totals = {"greedy+filter": [], "uniform+biased": []}
uniform = random_select("uniform", basis, K, K, seed=99)
for trial in range(30):
    sig = gen_signal("GS1", basis, seed=child_seed("demo4", trial))
    obs_g = observe(sig, selection.indices, sigma2,
                    seed=child_seed("demo4-noise", trial, "g"))
    obs_u = observe(sig, uniform.indices, sigma2,
                    seed=child_seed("demo4-noise", trial, "u"))
    rec_g = filter_reconstruct(obs_g, approx, DEFAULT_MU)
    rec_u = biased_reconstruct(obs_u, basis, K, DEFAULT_MU)
    totals["greedy+filter"].append(rmse(rec_g.values, sig.values))
    totals["uniform+biased"].append(rmse(rec_u.values, sig.values))
for name, values in totals.items():
    print(f"  {name:16s} mean rmse = {np.mean(values):.4f}"
          f"  (worst {np.max(values):.4f})")
