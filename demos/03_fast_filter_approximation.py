"""Eigendecomposition-free low-pass filters from Givens rotations.

A greedy Jacobi sweep drives the Laplacian toward diagonal form one
rotation at a time; truncating the sweep gives a cheap orthogonal basis
whose leading columns approximate the ideal low-pass projector.
"""

import numpy as np

from gsample import (build_laplacian, eigendecompose, exact_lowpass,
                     gen_sensor, greedy_jacobi, lowpass_from_givens,
                     rotation_budget)
from gsample.oracle import apply_rotation, offdiag_sq_norm

n, K = 32, 5
lap = build_laplacian(gen_sensor(n, 6, seed=9))
basis = eigendecompose(lap)
exact = exact_lowpass(basis, K)

J_default = rotation_budget(n)
print(f"n={n}, K={K}; default rotation budget ceil(6 n log10 n) = {J_default}\n")

print("off-diagonal energy decay along the greedy sweep:")
seq, eigs, perm = greedy_jacobi(lap, J_default)
w = lap.dense()
initial = offdiag_sq_norm(w)
for step, (p, q, theta) in enumerate(seq.rotations, start=1):
    apply_rotation(w, p, q, theta)
    if step in (1, 10, 50, 100, seq.count):
        print(f"  after {step:4d} rotations: off-diag energy "
              f"{offdiag_sq_norm(w):10.4f}  ({offdiag_sq_norm(w)/initial:.1%} "
              f"of initial)")

print("\nfilter error against the ideal projector as the budget doubles:")
for J in (0, J_default // 4, J_default // 2, J_default, 2 * J_default):
    sq, ev, pm = greedy_jacobi(lap, J)
    filt = lowpass_from_givens(sq, pm, K, approx_eigs=ev)
    err = np.linalg.norm(filt.filter - exact, "fro")
    print(f"  J={J:4d}: |T_approx - T_exact|_F = {err:.4f}"
          f"   trace(T) = {np.trace(filt.filter):.6f}")

approx_eigs = greedy_jacobi(lap, J_default)[1]
true_eigs = basis.eigenvalues
print("\nsmallest five eigenvalues, approximate vs exact:")
for a, t in zip(approx_eigs[:5], true_eigs[:5]):
    print(f"  {a:8.4f}   {t:8.4f}")
