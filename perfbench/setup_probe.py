"""Set-up time of one workload, measured in a fresh process.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``. Times the
import of ``repro``, the configs and the inputs (graph, access batch)
up to the first simulated access, and prints ``{"setup_s": ...}``.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import pipeline  # noqa: E402

pipeline.prepare(sys.argv[1], int(sys.argv[2]))
print(json.dumps({"setup_s": time.perf_counter() - START}))
