"""Full-system assembly: machine, system, and result records.

* :class:`~repro.sim.machine.Machine` — caches + secure controller (+
  shred register) glued together at the physical-address level.
* :class:`~repro.sim.system.System` — machine + kernel + cores +
  processes; the object workloads run against.
* :mod:`repro.sim.batch` — the epoch-batched access-stream engine
  (:class:`AccessBatch`, the reference :class:`ScalarEngine` and the
  probe-eliding :class:`BatchEngine`) over either the controller
  datapath or, for batches carrying a cores array, the bulk
  cache-hierarchy walk.
* :mod:`repro.sim.results` — serialisable run summaries used by the
  benchmark harness and the analysis layer.
"""

from .batch import (AccessBatch, AccessEngine, BatchEngine, EngineResult,
                    HierarchyMissPort, OP_READ, OP_SHRED, OP_WRITE,
                    ScalarEngine, make_engine, parse_engine_spec)
from .machine import Machine
from .system import System, SystemReport
from .results import RunResult, compare_runs

__all__ = [
    "AccessBatch",
    "AccessEngine",
    "BatchEngine",
    "EngineResult",
    "HierarchyMissPort",
    "Machine",
    "OP_READ",
    "OP_SHRED",
    "OP_WRITE",
    "RunResult",
    "ScalarEngine",
    "System",
    "SystemReport",
    "compare_runs",
    "make_engine",
    "parse_engine_spec",
]
