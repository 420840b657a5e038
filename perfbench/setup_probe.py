"""One set-up in a fresh process: import, spec parse and one warm-up op.

Usage: python3 perfbench/setup_probe.py <src dir> <workload> <base seed>
Prints the elapsed wall seconds, then the seconds of one pass of the
workload's calibration kernel, run after the set-up and outside it.  run.py
starts it several times and reports the median scaled set-up as `setup_s`.
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    src, name, base_seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    from gsample.bench import parse_spec_text, run_experiment

    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    run_experiment(parse_spec_text(workload.op_spec_text(base_seed)))
    seconds = time.perf_counter() - start

    from calibrate import Calibration
    print(repr(seconds), repr(Calibration(workload.kernel).seconds()))
