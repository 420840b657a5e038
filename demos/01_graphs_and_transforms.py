"""Graph models, Laplacians, and the graph Fourier transform.

Builds the three random graph families, decomposes their Laplacians, and
shows bandlimited signals living in the low-frequency eigenspace.
"""

import os
import tempfile

import numpy as np

from gsample import (build_laplacian, eigendecompose, gen_community, gen_er,
                     gen_sensor, gen_signal, gft, igft, save_graph)

print("=" * 60)
print("1. Three random graph models")
print("=" * 60)

graphs = {
    "sensor (6-nn geometric)": gen_sensor(64, 6, seed=1),
    "Erdos-Renyi p=0.1": gen_er(64, 0.1, seed=1),
    "community SBM": gen_community(64, seed=1),
}
for name, g in graphs.items():
    lap = build_laplacian(g)
    eigs = np.linalg.eigvalsh(lap.matrix)
    print(f"{name:28s} n={g.n}  edges={g.edge_count:4d}  "
          f"lambda_1={eigs[1]:.4f}  lambda_max={eigs[-1]:.2f}")

path = os.path.join(tempfile.mkdtemp(prefix="gsample-demo-"), "sensor64.txt")
save_graph(graphs["sensor (6-nn geometric)"], path)
print(f"\nedge list written to {path} (format: 'i j w' per line)")

print()
print("=" * 60)
print("2. Spectral basis and transform round trip")
print("=" * 60)

g = graphs["sensor (6-nn geometric)"]
basis = eigendecompose(build_laplacian(g))
rng = np.random.default_rng(0)
x = rng.normal(size=g.n)
xhat = gft(basis, x)
print(f"round-trip error |igft(gft(x)) - x|_inf = "
      f"{np.abs(igft(basis, xhat) - x).max():.2e}")
print(f"Parseval check  |x|_2 - |xhat|_2        = "
      f"{abs(np.linalg.norm(x) - np.linalg.norm(xhat)):.2e}")

print()
print("=" * 60)
print("3. Bandlimited signal models")
print("=" * 60)

for model in ("GS1", "GS2", "GS3"):
    sig = gen_signal(model, basis, seed=7)
    spectrum = sig.spectrum
    tail = np.abs(spectrum[sig.bandwidth:])
    tail_energy = float((tail ** 2).sum())
    print(f"{model}: bandwidth K={sig.bandwidth:2d}  "
          f"in-band energy={float((spectrum[:sig.bandwidth]**2).sum()):7.3f}  "
          f"out-of-band energy={tail_energy:.4f}")
