"""The names perfbench reads from gsample.

perfbench (`perfbench/spans.py`) wraps the functions its `TARGETS` list
under the names the runner calls them by, and `perfbench/layers.py` reads
attributes of their arguments and results for its quality figures.  A
name that goes away only marks those per-layer figures absent there, so
these checks keep every such name in place; dropping one is a change to
perfbench too.  `spans.py` imports only the standard library, and is
loaded from its file unchanged.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from gsample import (approximate_lowpass, build_laplacian, eigendecompose,
                     gen_sensor, greedy_jacobi, rotation_budget)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize("module,attr", [target[:2] for target in TARGETS],
                         ids=[f"{module}.{attr}"
                              for module, attr, _ in TARGETS])
def test_every_span_target_is_a_callable_of_its_module(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_the_attributes_perfbench_reads_exist():
    n, K = 30, 4
    lap = build_laplacian(gen_sensor(n, 6, seed=0))
    # the quality figures: L, the filter and its rotations, the exact basis
    assert lap.matrix.tobytes() == lap.dense().tobytes()
    filt = approximate_lowpass(lap, K)
    assert filt.givens.count == greedy_jacobi(lap, rotation_budget(n))[0].count
    assert filt.approx_eigs.shape == (n,) and filt.bandwidth == K
    assert filt.filter.shape == (n, n)
    basis = eigendecompose(lap, K)
    assert basis.low_frequency(K).shape == (n, K)
    assert basis.eigenvalues[:K].shape == (K,)
