"""The committed `scripts/spec_digest.txt` holds what the script prints.

The six lines over fixed grids of library calls are recomputed here, in
a fresh interpreter where the script sets one BLAS thread before numpy
loads; the spec runs, the rest of the file, take the whole script's
15 s and are left to it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
DIGEST = SCRIPTS / "spec_digest.txt"
HEADER = re.compile(r"# numpy (\S+), scipy (\S+), BLAS (\S+) (\S+)$")
LIBRARY_LINES = ("generators ", "laplacians ", "greedy_jacobi ",
                 "dense fagod ", "spectral picks ", "bench picks ")

CHILD = f"""
import sys
sys.path.insert(0, {str(SCRIPTS)!r})
import spec_digest
for line in spec_digest.library_lines():
    print(line)
"""


def _running_versions():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (numpy.__version__, scipy.__version__, blas["name"],
            blas["version"])


def test_library_lines_match_the_committed_digest():
    header, *lines = DIGEST.read_text(encoding="utf-8").splitlines()
    recorded = HEADER.match(header)
    assert recorded, f"unreadable header {header!r}"
    expected = [line for line in lines if line.startswith(LIBRARY_LINES)]
    assert len(lines) == 14 and len(expected) == 6
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = proc.stdout.splitlines()
    if got != expected and recorded.groups() != _running_versions():
        pytest.skip(f"digest recorded with numpy, scipy, BLAS "
                    f"{recorded.groups()}, running {_running_versions()}")
    assert got == expected
