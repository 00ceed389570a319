"""Set-up probe, run in a fresh interpreter: time ``import surfmod`` plus
building one workload's catalog entries, and print the seconds taken.

    python3 perfbench/setup_probe.py <src dir> <workload> <seed>
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import surfmod  # noqa: E402,F401

imported = time.perf_counter()

import numpy as np  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

built = time.perf_counter()
WORKLOADS[sys.argv[2]].setup_entries(np.random.default_rng(int(sys.argv[3])))
print(imported - start + time.perf_counter() - built)
