"""Set-up time of one workload in a fresh process.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``; prints
the seconds spent importing ``repro`` and building what the workload
needs before its first timed round (the first Engine, the sweep's
spec list and cache, or the verification model).
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import repro  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
