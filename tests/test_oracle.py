import math
from itertools import combinations

import numpy as np
import pytest

from gsample import (build_laplacian, eigendecompose, empirical_alpha,
                     exhaustive_optimum, gen_sensor, greedy_decay_check,
                     objective_agod, relative_suboptimality, theorem_bounds)
from gsample.oracle import greedy_minimize, save_alpha_csv, save_subopt_csv


def _basis(n, seed):
    return eigendecompose(build_laplacian(gen_sensor(n, min(5, n - 1), seed=seed)))


def test_exhaustive_full_set_is_trivial():
    g = lambda S: -len(S)  # noqa: E731
    val, best = exhaustive_optimum(g, 5, 5)
    assert best == (0, 1, 2, 3, 4)
    assert val == -5


def test_exhaustive_against_independent_enumerations():
    basis = _basis(6, 0)
    g = lambda S: objective_agod(S, basis, 2, 0.05)  # noqa: E731
    val, best = exhaustive_optimum(g, 6, 2)

    # oracle 1: reversed iteration order, tracking all argmins
    candidates = list(combinations(range(6), 2))
    values = {S: g(S) for S in candidates}
    vmin = min(values.values())
    argmins = sorted(S for S, v in values.items() if v == vmin)
    assert val == vmin
    assert best == argmins[0]

    # oracle 2: bitmask enumeration
    vmin2, best2 = np.inf, None
    for mask in range(2 ** 6):
        S = tuple(i for i in range(6) if mask >> i & 1)
        if len(S) != 2:
            continue
        v = g(S)
        if v < vmin2 or (v == vmin2 and S < best2):
            vmin2, best2 = v, S
    assert val == vmin2 and best == best2


def test_exhaustive_constant_objective_tie_rule():
    val, best = exhaustive_optimum(lambda S: 1.0, 6, 3)
    assert val == 1.0
    assert best == (0, 1, 2)


def test_exhaustive_guard():
    with pytest.raises(ValueError, match="guard"):
        exhaustive_optimum(lambda S: 0.0, 60, 30)


def test_relative_suboptimality_extremes():
    # crafted modular objective: g(S) = 10 - |S on the cheap side|
    def g(S):
        return 10.0 - sum(1.0 for i in S if i < 3)

    rep = relative_suboptimality(g, (0, 1, 2), 6, 3)
    assert rep.r == 0.0
    assert rep.g_star == 7.0 and rep.g_empty == 10.0
    rep_worst = relative_suboptimality(g, (3, 4, 5), 6, 3)
    assert rep_worst.r == 1.0  # as bad as the empty set
    with pytest.raises(ValueError):
        relative_suboptimality(g, (0, 1), 6, 3)  # wrong size


def test_empirical_alpha_includes_trivial_ratio_one():
    basis = _basis(6, 1)
    rep = empirical_alpha(lambda S: objective_agod(S, basis, 2, 0.1), 6, 0.1)
    # A = B contributes ratio exactly 1, so alpha can never exceed 1
    assert rep.alpha_empirical <= 1.0
    assert rep.alpha_empirical >= 0.0
    assert rep.considered > 0


def test_empirical_alpha_scalar_case_is_supermodular():
    # K = 1 reduces to g(S) = 1/(sum + mu): genuinely supermodular, alpha = 1
    basis = _basis(6, 2)
    rep = empirical_alpha(lambda S: objective_agod(S, basis, 1, 0.1), 6, 0.1)
    assert rep.alpha_empirical == pytest.approx(1.0, abs=1e-9)
    assert rep.skipped == 0


def test_empirical_alpha_guards():
    with pytest.raises(ValueError):
        empirical_alpha(lambda S: 0.0, 9, 0.1)
    with pytest.raises(ValueError, match="degenerate"):
        empirical_alpha(lambda S: 1.0, 4, 0.1)  # constant objective


def test_theorem_bounds_spot_values():
    bg, bt = theorem_bounds(1.0)
    assert bg == 0.75 and bt == 0.1875
    bg001, _ = theorem_bounds(0.01)
    assert bg001 == pytest.approx(0.019704, abs=1e-6)
    with pytest.raises(ValueError):
        theorem_bounds(0.0)


def test_theorem_bounds_dominance_and_limit():
    grid = np.logspace(-3, 1, 100)
    previous = 0.0
    for mu in grid:
        bg, bt = theorem_bounds(float(mu))
        assert bg > bt
        assert bg > previous  # monotone toward the mu -> inf limit of 1
        previous = bg
    assert theorem_bounds(1e6)[0] == pytest.approx(1.0, abs=1e-5)


def test_decay_bound_formula_edge_cases():
    # alpha = 0 collapses the guarantee to the trivial bound 1
    assert (1.0 - 0.0 / 4) ** 3 == 1.0
    # the finite-sample bound never exceeds its exponential relaxation
    for alpha in (0.1, 0.5, 0.75):
        for M in (2, 5):
            for l in range(1, M + 1):
                assert (1 - alpha / M) ** l <= math.exp(-alpha * l / M) + 1e-12


def test_greedy_decay_check_holds():
    basis = _basis(8, 3)
    obj = lambda S: objective_agod(S, basis, 2, 0.1)  # noqa: E731
    ok, rows = greedy_decay_check(obj, 8, 0.1, 3)
    assert ok
    assert [row["l"] for row in rows] == [1, 2, 3]
    # the first greedy pick is the exhaustive size-1 optimum
    assert rows[0]["ratio"] == pytest.approx(0.0, abs=1e-12)
    for row in rows:
        assert row["ratio"] <= row["bound"] + 1e-12
        assert row["bound"] <= row["exp_bound"] + 1e-12


def test_greedy_minimize_prefix_consistency():
    basis = _basis(7, 4)
    obj = lambda S: objective_agod(S, basis, 2, 0.1)  # noqa: E731
    sel5, _ = greedy_minimize(obj, 7, 5)
    sel3, _ = greedy_minimize(obj, 7, 3)
    assert sel5[:3] == sel3


def test_report_csv_writers(tmp_path):
    basis = _basis(6, 5)
    alpha_rep = empirical_alpha(lambda S: objective_agod(S, basis, 2, 0.1),
                                6, 0.1)
    apath = tmp_path / "alpha.csv"
    save_alpha_csv([("inst0", alpha_rep)], apath)
    lines = apath.read_text().splitlines()
    assert lines[0].startswith("instance,mu,alpha_empirical")
    assert len(lines) == 2

    subopt = relative_suboptimality(
        lambda S: objective_agod(S, basis, 2, 0.1), (0, 1), 6, 2)
    spath = tmp_path / "subopt.csv"
    save_subopt_csv([("inst0", 2, subopt)], spath)
    assert spath.read_text().splitlines()[0] == "instance,M,r,g_hat,g_star,g_empty"
