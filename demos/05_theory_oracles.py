"""Exhaustive oracles: suboptimality, supermodularity constants, decay.

Small graphs are solved exactly by enumeration, which lets us measure how
close greedy selection gets to the true optimum and how the measured
supermodularity constant alpha compares with the closed-form candidate
bounds.  The measurements are reported as they come out: for the
max-diagonal criterion the empirical alpha falls far below the
closed-form curve (the bound holds only in the scalar-bandwidth case),
while the greedy decay guarantee still holds with a wide margin.
"""

from gsample import (build_laplacian, eigendecompose, empirical_alpha,
                     exact_lowpass, gen_sensor, greedy_decay_check,
                     greedy_select, objective_agod, objective_fagod,
                     relative_suboptimality, theorem_bounds)

MU = 1 / 99

print("=" * 64)
print("1. Relative suboptimality of greedy vs exhaustive search (n=10)")
print("=" * 64)
for seed in (0, 1, 2):
    basis = eigendecompose(build_laplacian(gen_sensor(10, 6, seed=seed)))
    T = exact_lowpass(basis, 2)
    g = lambda S: objective_fagod(S, T, MU)  # noqa: E731
    sel = greedy_select("fagod", 6, filt=T, mu=MU)
    rs = [relative_suboptimality(g, sel.indices[:m], 10, m).r
          for m in range(2, 7)]
    print(f"  graph seed {seed}: r over M=2..6 = "
          + "  ".join(f"{r:.4f}" for r in rs))
print("  (r = 0 means greedy found the exhaustive optimum exactly)")

print()
print("=" * 64)
print("2. Empirical supermodularity constant vs closed-form curves")
print("=" * 64)
basis6 = eigendecompose(build_laplacian(gen_sensor(6, 5, seed=4)))
print(f"  {'mu':>6s} {'empirical alpha':>16s} {'max-diag curve':>15s} "
      f"{'trace curve':>12s}")
for mu in (0.01, 0.1, 1.0):
    rep = empirical_alpha(
        lambda S, mu=mu: objective_agod(S, basis6, 2, mu), 6, mu)
    bg, bt = theorem_bounds(mu)
    print(f"  {mu:6.2f} {rep.alpha_empirical:16.6f} {bg:15.6f} {bt:12.6f}")
print("  (scalar bandwidth K=1 is the supermodular case: alpha = 1 exactly)")
rep1 = empirical_alpha(lambda S: objective_agod(S, basis6, 1, 0.1), 6, 0.1)
print(f"  K=1 check: empirical alpha = {rep1.alpha_empirical:.6f}")

print()
print("=" * 64)
print("3. Greedy decay guarantee (per-step gap under the geometric bound)")
print("=" * 64)
ok, rows = greedy_decay_check(
    lambda S: objective_agod(S, basis6, 2, 0.1), 6, 0.1, 3)
print(f"  bound holds at every step: {ok}")
for row in rows:
    print(f"  l={row['l']}  gap ratio {row['ratio']:.5f}  <=  "
          f"(1-alpha/M)^l = {row['bound']:.5f}  <=  "
          f"exp bound {row['exp_bound']:.5f}")
