"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside pytest's own verdicts.

Two criteria assert the verdict that the documented objectives provably
earn, each backed by a witness computed independently of the code path
under test:

* criterion 1: greedy on the bordered filter-submatrix objective
  max diag (T_SS + mu I)^-1 stays within r <= 0.05 of the exhaustive
  optimum, with median r = 0, for budgets M <= K, where the README and
  the abstract place the claim.  For M > K it must equal the brute-force
  greedy (`oracle.greedy_minimize`) on the same objective, and the
  exhaustive optimum must meet the rank floor
  g*_M >= ((M - K)/mu + K/(1 + mu)) / M that rank(T_SS) <= K forces.
* criterion 2: no lower bound on alpha that depends on mu alone holds
  for the max-diagonal objective at K >= 2.  The witness is the 3-node
  path at K = 2, whose middle node has Fiedler entry 0, so adding it to
  the empty set gains nothing while adding it after node 0 gains a
  closed-form positive amount: alpha = 0 < mu(2+mu)/(1+mu)^2.  On every
  shared instance the oracle's alpha must not exceed the smallest ratio
  gain(empty, j) / gain(B, j), with the numerator taken from the closed
  form min_k v_jk^2 / (mu (mu + ||v_j||^2)), and the objective must be
  monotone decreasing.
"""

import os
import statistics
import time

import numpy as np
import pytest

from conftest import graph_from_adjacency
from gsample import (build_laplacian, eigendecompose, empirical_alpha,
                     exact_lowpass, gen_sensor, gen_signal,
                     greedy_decay_check, greedy_jacobi, greedy_select,
                     lowpass_from_givens, objective_agod, objective_fagod,
                     observe, relative_suboptimality, rotation_budget,
                     theorem_bounds)
from gsample.bench import parse_spec_text, run_experiment
from gsample.cli import main
from gsample.oracle import (DEGENERATE_GAIN, FactoredFagodState,
                            apply_rotation, greedy_minimize, offdiag_sq_norm,
                            update_inverse_rank_one)
from gsample.reconstruction import (biased_reconstruct, blue_reconstruct,
                                    filter_reconstruct, rmse)

MU = 1.0 / 99.0


def _report(num, name, ok, detail):
    print(f"\n[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _alpha_instances():
    """The shared instance population for criteria 2 and 3."""
    configs = [(6, 2, 4), (7, 3, 5), (8, 3, 5)]
    for seed in range(6):
        for n, K, k_nn in configs:
            basis = eigendecompose(build_laplacian(gen_sensor(n, k_nn, seed=seed)))
            for mu in (0.01, 0.1, 1.0):
                yield n, K, mu, basis


def test_criterion_01_suboptimality_reproduction():
    # r <= 0.05 with median 0 is claimed only for M <= K ("near zero only
    # at M <= K"; "especially when the sampling rate is low").  Past K no
    # guarantee applies: the bordered objective never decreases after the
    # first pick, so the alpha argument for decreasing functions does not
    # cover it.  And T_SS = V_SK V_SK^T has rank <= K with eigenvalues in
    # [0, 1], so (T_SS + mu I)^-1 keeps M - K eigenvalues at 1/mu and the
    # rest at >= 1/(1 + mu); its max diagonal is at least its trace / M,
    # which floors g*_M and shrinks r's normaliser g(empty) - g*.
    t0 = time.monotonic()
    K = 2
    budgets = range(2, 7)
    per_m = {m: [] for m in budgets}
    greedy_equal = 0
    floor_met = 0
    floor_margin = np.inf
    for seed in range(50):
        basis = eigendecompose(build_laplacian(gen_sensor(10, 6, seed=seed)))
        T = exact_lowpass(basis, K)

        def g(S):
            return objective_fagod(S, T, MU)

        selection = greedy_select("fagod", 6, filt=T, mu=MU)
        reference, _ = greedy_minimize(g, 10, 6)
        for m in budgets:
            rep = relative_suboptimality(g, selection.indices[:m], 10, m)
            per_m[m].append(rep.r)
            if m > K:
                greedy_equal += list(selection.indices[:m]) == reference[:m]
                floor = ((m - K) / MU + K / (1.0 + MU)) / m
                floor_met += rep.g_star >= floor
                floor_margin = min(floor_margin, rep.g_star / floor)
    elapsed = time.monotonic() - t0
    worst = {m: max(rs) for m, rs in per_m.items()}
    medians = {m: statistics.median(rs) for m, rs in per_m.items()}
    beyond = 50 * sum(m > K for m in budgets)
    ok = (all(worst[m] <= 0.05 and medians[m] == 0.0 for m in budgets if m <= K)
          and greedy_equal == beyond and floor_met == beyond
          and elapsed <= 60.0)
    detail = (f"max r per M: {[f'{worst[m]:.4f}' for m in budgets]}, "
              f"median per M: {[f'{medians[m]:.4f}' for m in budgets]}; "
              f"M > K: greedy = brute-force greedy in {greedy_equal}/{beyond}, "
              f"rank floor on g* met in {floor_met}/{beyond} (min ratio "
              f"{floor_margin:.3f}); {elapsed:.1f}s")
    _report(1, "greedy r<=0.05 with median 0 at M<=K; exact greedy and "
            "rank floor past K", ok, detail)
    assert ok, detail


def test_criterion_02_alpha_certificate():
    # Since (v v^T + mu I)^-1 = (I - v v^T / (mu + |v|^2)) / mu, adding node
    # j to the empty set lowers the max-diag objective by exactly
    # min_k v_jk^2 / (mu (mu + |v_j|^2)), v_j being row j of V_K.  That is
    # zero whenever v_j has a zero entry, so no bound on alpha that depends
    # on mu alone can hold for K >= 2.
    t0 = time.monotonic()
    # Witness: the 3-node path at K = 2.  V_2 has rows (1/sqrt3, +-1/sqrt2)
    # at the ends and (1/sqrt3, 0) in the middle, so gain(empty, 1) = 0
    # while gain({0}, 1) = g({0}) - g({0, 1}) in closed form is positive.
    adjacency = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    path = eigendecompose(build_laplacian(graph_from_adjacency(adjacency)))
    witness = []
    for mu in (0.01, 0.1, 1.0):
        def g(S, mu=mu):
            return objective_agod(S, path, 2, mu)

        gain_empty = g(()) - g((1,))
        gain_after = g((0,)) - g((0, 1))
        expected = ((1.0 - (1.0 / 3.0) / (mu + 5.0 / 6.0)) / mu
                    - (2.0 / 3.0 + mu)
                    / ((2.0 / 3.0 + mu) * (0.5 + mu) - 1.0 / 6.0))
        rep = empirical_alpha(g, 3, mu)
        # zero up to rounding: the middle Fiedler entry is ~1e-16, not 0
        holds = (abs(gain_empty) <= 1e-12 and gain_after > 0.0
                 and gain_after == pytest.approx(expected, rel=1e-9)
                 and rep.alpha_empirical <= 1e-12 < rep.bound_g)
        witness.append((mu, gain_empty, gain_after, rep.alpha_empirical,
                        rep.bound_g, holds))

    capped = 0
    mono_ok = 0
    bound_met = 0
    total = 0
    for n, K, mu, basis in _alpha_instances():
        total += 1

        def g(S):
            return objective_agod(S, basis, K, mu)

        rep = empirical_alpha(g, n, mu)
        bound_met += rep.alpha_empirical >= rep.bound_g
        values = {}
        for mask in range(2 ** n):
            values[mask] = g(tuple(i for i in range(n) if mask >> i & 1))
        # monotone decrease over every single-element addition
        monotone = all(
            values[mask | (1 << j)] <= values[mask] + 1e-12
            for mask in range(2 ** n) for j in range(n) if not mask >> j & 1)
        mono_ok += monotone
        # alpha ranges over A = empty among its subsets A of B, so it cannot
        # exceed the smallest gain(empty, j) / gain(B, j); pairs the oracle
        # skips as degenerate are skipped here too
        vk = basis.low_frequency(K)
        gain_empty = [float(np.min(vk[j] ** 2) / (mu * (mu + vk[j] @ vk[j])))
                      for j in range(n)]
        ratio_cap = min(
            gain_empty[j] / (values[mask] - values[mask | (1 << j)])
            for mask in range(2 ** n) for j in range(n)
            if not mask >> j & 1
            and abs(values[mask] - values[mask | (1 << j)]) > DEGENERATE_GAIN)
        # the oracle's numerator 1/mu - g({j}) carries rounding of order
        # eps/mu that the closed form does not
        capped += rep.alpha_empirical <= ratio_cap + 1e-9 * abs(ratio_cap)
    elapsed = time.monotonic() - t0
    ok = (all(w[-1] for w in witness) and capped == total
          and mono_ok == total and elapsed <= 120.0)
    path_detail = "; ".join(
        f"mu={mu}: gain(empty,1)={ge:.3g}, gain({{0}},1)={ga:.4g}, "
        f"alpha={a:.3g} < bound {b:.4g}: {h}"
        for mu, ge, ga, a, b, h in witness)
    detail = (f"path witness [{path_detail}]; alpha <= A=empty ratio in "
              f"{capped}/{total}; monotone in {mono_ok}/{total}; closed-form "
              f"bound met in {bound_met}/{total} (refuted, not asserted); "
              f"{elapsed:.1f}s")
    _report(2, "alpha certificate: path witness refutes the mu-only bound, "
            "A=empty ratio caps alpha, monotone decrease", ok, detail)
    assert ok, detail


def test_criterion_03_greedy_decay_bound():
    failures = 0
    total = 0
    for n, K, mu, basis in _alpha_instances():
        total += 1

        def g(S):
            return objective_agod(S, basis, K, mu)

        ok, rows = greedy_decay_check(g, n, mu, 3)
        failures += not ok
    ok = failures == 0
    detail = f"{total - failures}/{total} instances satisfy the decay bound"
    _report(3, "greedy gap within (1-alpha/M)^l and exp(-alpha l/M)", ok, detail)
    assert ok, detail


def test_criterion_04_bound_dominance():
    grid = np.logspace(-3, 1, 100)
    dominated = all(theorem_bounds(float(mu))[0] > theorem_bounds(float(mu))[1]
                    for mu in grid)
    bg, bt = theorem_bounds(1.0)
    spot = bg == 0.75 and bt == 0.1875
    ok = dominated and spot
    detail = f"dominance on 100-point grid: {dominated}, mu=1 spot exact: {spot}"
    _report(4, "max-diag alpha bound dominates trace bound", ok, detail)
    assert ok, detail


def test_criterion_05_incremental_update_fidelity():
    rng = np.random.Generator(np.random.PCG64(2024))
    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(2, 9))
        a = rng.normal(size=(k, k))
        z = a @ a.T + float(rng.uniform(0.05, 1.0)) * np.eye(k)
        v = rng.normal(size=k)
        updated = update_inverse_rank_one(np.linalg.inv(z), v)
        dense = np.linalg.inv(z + np.outer(v, v))
        worst = max(worst, float(np.abs(updated - dense).max()))
    # the factored fagod state grows max diag (T_SS + mu I)^-1 node by
    # node for T = V V^T: each objective against the direct inverse
    worst_grown = 0.0
    for _ in range(100):
        n, k = int(rng.integers(5, 9)), int(rng.integers(1, 5))
        factor = rng.normal(size=(n, k))
        mu = float(rng.uniform(0.05, 1.0))
        T = factor @ factor.T
        state = FactoredFagodState(factor, mu)
        for j in rng.permutation(n)[:5]:
            state.add(int(j))
            S = state.selected
            direct = np.linalg.inv(T[np.ix_(S, S)] + mu * np.eye(len(S)))
            worst_grown = max(worst_grown, abs(
                state.objective() - direct.diagonal().max()))
    ok = worst <= 1e-8 and worst_grown <= 1e-8
    detail = (f"max deviation over 500 rank-one updates: {worst:.3g}, "
              f"over 500 grown fagod objectives: {worst_grown:.3g}")
    _report(5, "incremental inverses match dense inversion", ok, detail)
    assert ok, detail


def test_criterion_06_appendix_property_suites():
    rng = np.random.Generator(np.random.PCG64(66))
    chain_viol = 0
    for _ in range(500):
        k = int(rng.integers(2, 9))
        a = rng.normal(size=(k, k))
        c = a @ a.T + 1e-3 * np.eye(k)
        diag = np.diag(c)
        geo_diag = float(np.exp(np.mean(np.log(diag))))
        geo_eigs = float(np.exp(np.mean(np.log(np.linalg.eigvalsh(c)))))
        if not (diag.max() >= geo_diag * (1 - 1e-9)
                and geo_diag >= geo_eigs * (1 - 1e-9)):
            chain_viol += 1

    diff_viol = 0
    for _ in range(500):
        k = int(rng.integers(2, 9))
        a = rng.normal(size=(k, k))
        b = rng.normal(size=(k, k))
        a, b = (a + a.T) / 2, (b + b.T) / 2
        d = lambda m: float(np.max(np.diag(m)))  # noqa: E731
        scale = max(1.0, abs(d(a)), abs(d(b)))
        if not (-d(b - a) - 1e-9 * scale <= d(a) - d(b) <= d(a - b) + 1e-9 * scale):
            diff_viol += 1

    spectra_viol = 0
    for trial in range(500):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(1, min(n, 5)))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        size = int(rng.integers(1, n + 1))
        rows = rng.choice(n, size=size, replace=False)
        vsk = q[rows, :k]
        small = np.linalg.eigvalsh(vsk.T @ vsk)
        big = np.linalg.eigvalsh(vsk @ vsk.T)
        nz_s = np.sort(small[small > 1e-9])
        nz_b = np.sort(big[big > 1e-9])
        if len(nz_s) != len(nz_b) or (len(nz_s) and
                                      np.abs(nz_s - nz_b).max() > 1e-9):
            spectra_viol += 1

    ok = chain_viol == 0 and diff_viol == 0 and spectra_viol == 0
    detail = (f"chain violations {chain_viol}/500, max-diag difference "
              f"violations {diff_viol}/500, spectra violations {spectra_viol}/500")
    _report(6, "diagonal/eigenvalue inequality suites", ok, detail)
    assert ok, detail


def test_criterion_07_givens_approximation():
    # per-rotation energy drop
    lap = build_laplacian(gen_sensor(16, 6, seed=100))
    seq, _, _ = greedy_jacobi(lap, rotation_budget(16))
    w = lap.matrix.copy()
    scale = max(1.0, offdiag_sq_norm(w))
    drop_ok = True
    for p, q, theta in seq.rotations:
        before = offdiag_sq_norm(w)
        target = 2.0 * w[p, q] ** 2
        apply_rotation(w, p, q, theta)
        if abs((before - offdiag_sq_norm(w)) - target) > 1e-10 * scale:
            drop_ok = False
            break

    K = 4
    budgets = [29, 58, 116, 232]
    errors = {J: [] for J in [0] + budgets}
    for seed in range(20):
        lap = build_laplacian(gen_sensor(16, 6, seed=seed))
        exact = exact_lowpass(eigendecompose(lap), K)
        for J in [0] + budgets:
            sq, eigs, perm = greedy_jacobi(lap, J)
            filt = lowpass_from_givens(sq, perm, K, approx_eigs=eigs)
            errors[J].append(float(np.linalg.norm(filt.filter - exact, "fro")))
    strict = sum(b < z for b, z in zip(errors[116], errors[0]))
    means = [float(np.mean(errors[J])) for J in budgets]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
    ok = drop_ok and strict == 20 and nonincreasing
    detail = (f"energy drops exact: {drop_ok}; below-J=0 in {strict}/20 seeds; "
              f"mean error over doubling budgets {['%.3f' % m for m in means]}")
    _report(7, "Givens low-pass approximation quality", ok, detail)
    assert ok, detail


def test_criterion_08_reconstruction_exactness():
    # noiseless bandlimited interpolation at |S| = K
    basis = eigendecompose(build_laplacian(gen_sensor(30, 6, seed=200)))
    signal = gen_signal("GS1", basis, seed=1)
    selection = greedy_select("agod", 10, basis=basis, K=10, mu=MU)
    obs = observe(signal, selection.indices, 0.0)
    blue = blue_reconstruct(obs, basis, 10)
    blue_rmse = rmse(blue.values, signal.values)

    # push-through equivalence of the two biased forms
    worst = 0.0
    rng = np.random.Generator(np.random.PCG64(300))
    for seed in range(10):
        basis = eigendecompose(build_laplacian(gen_sensor(12, 5, seed=seed)))
        K = 4
        T = exact_lowpass(basis, K)
        signal = gen_signal("GS2", basis, seed=seed, bandwidth=K)
        for _ in range(10):
            size = int(rng.integers(1, 12))
            idx = rng.choice(12, size=size, replace=False).tolist()
            obs = observe(signal, idx, 5e-3, seed=int(rng.integers(2 ** 31)))
            a = biased_reconstruct(obs, basis, K, MU)
            b = filter_reconstruct(obs, T, MU)
            worst = max(worst, float(np.abs(a.values - b.values).max()))
    ok = blue_rmse <= 1e-9 and worst <= 1e-9
    detail = (f"noiseless interpolation rmse {blue_rmse:.2e}; max biased/filter "
              f"deviation over 100 instances {worst:.2e}")
    _report(8, "reconstruction exactness and push-through equivalence", ok, detail)
    assert ok, detail


def test_criterion_09_desk_scale_rmse_ordering():
    t0 = time.monotonic()
    spec = parse_spec_text(
        "study = rmse_vs_size\n"
        "graph = G1\n"
        "signal = GS1\n"
        "n = 200\n"
        "K = 10\n"
        "methods = fagod, rand-uniform\n"
        "sweep = 10\n"
        "trials = 50\n"
        "base_seed = 42\n")
    result = run_experiment(spec, threads=min(4, os.cpu_count() or 1))
    elapsed = time.monotonic() - t0
    means = {}
    for row in result.rows:
        means.setdefault(row.method, []).append(row.value)
    fagod_mean = float(np.mean(means["fagod"]))
    random_mean = float(np.mean(means["rand-uniform"]))
    ok = fagod_mean < random_mean and elapsed <= 600.0
    detail = (f"mean RMSE at M=K: fagod {fagod_mean:.4f} vs uniform "
              f"{random_mean:.4f}; {elapsed:.0f}s")
    _report(9, "budget=bandwidth RMSE beats uniform random", ok, detail)
    assert ok, detail


def test_criterion_10_cli_determinism(tmp_path):
    spec_text = (
        "study = rmse_vs_size\n"
        "graph = G1\n"
        "signal = GS1\n"
        "n = 30\n"
        "K = 5\n"
        "methods = fagod, agod, rand-leverage\n"
        "sweep = 5, 10\n"
        "trials = 4\n"
        "base_seed = 3\n")
    spec_path = tmp_path / "det.spec"
    spec_path.write_text(spec_text, encoding="utf-8")
    outputs = []
    # at least 4 workers so the pool path is exercised even on 1-CPU boxes
    max_threads = str(max(4, os.cpu_count() or 1))
    for tag, threads in (("a", "1"), ("b", max_threads), ("c", "1")):
        out = tmp_path / f"{tag}.csv"
        code = main(["run", str(spec_path), "--out", str(out),
                     "--threads", threads])
        assert code == 0
        rows = out.read_text().splitlines()
        stripped = []
        for line in rows:
            cols = line.split(",")
            del cols[7]  # wall_ms column
            stripped.append(",".join(cols))
        outputs.append("\n".join(stripped))
    ok = outputs[0] == outputs[1] == outputs[2]
    detail = f"3 runs (threads 1/{max_threads}/1) byte-identical: {ok}"
    _report(10, "CLI reruns byte-identical across thread counts", ok, detail)
    assert ok, detail
