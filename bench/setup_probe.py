"""Time one workload's set-up in a fresh process.

Usage: python3 bench/setup_probe.py <workload> <seed> <src dir> <work dir>

Measures importing fowlerlab (with numpy, scipy and jsonschema), building
the workload's SystemParams and one warm-up call, and prints the seconds.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[3])

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), 1, sys.argv[4]).warm_up()
elapsed = time.perf_counter() - _START
if not workloads.experiments.__file__.startswith(os.path.join(sys.argv[3], "")):
    sys.exit(f"fowlerlab was imported from {workloads.experiments.__file__}")
print(repr(elapsed))
