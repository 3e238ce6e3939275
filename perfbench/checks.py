"""Output checks: pinned report digests and conservation identities.

An experiment counts as failed when it raises, when its report's
canonical digest differs from the one pinned for the default seed (or,
at any other seed, from the digest of the same experiment earlier in
the run), or when one of :data:`IDENTITIES` does not hold on its
``SystemReport.metrics``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

PINS_PATH = Path(__file__).resolve().parent / "digests.json"


def report_digest(report) -> str:
    """SHA-256 of ``report.to_dict()`` in canonical JSON form."""
    payload = json.dumps(report.to_dict(), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def metric_value(metrics: Mapping[str, object], name: str) -> float:
    """One counter or gauge from a metrics snapshot; 0 when absent."""
    entry = metrics.get(name)
    return entry["value"] if entry else 0


def _total(*names: str) -> Callable[[Mapping[str, object]], float]:
    return lambda metrics: sum(metric_value(metrics, name) for name in names)


def _accesses(level: str) -> Callable[[Mapping[str, object]], float]:
    return _total(f"cache.{level}.hits", f"cache.{level}.misses")


#: (name, left side, right side) over one report's metrics snapshot.
#: Re-encryption needs no term of its own: the controller's page
#: re-encryption counts its block reads in ``mem.ctrl.data_reads`` and
#: its rewrites in ``mem.ctrl.data_writes``.
IDENTITIES: Tuple[Tuple[str, Callable, Callable], ...] = (
    ("mem.nvm.reads = mem.ctrl.data_reads + mem.ctrl.counter_fetches",
     _total("mem.nvm.reads"),
     _total("mem.ctrl.data_reads", "mem.ctrl.counter_fetches")),
    ("mem.nvm.writes = mem.ctrl.data_writes + mem.ctrl.counter_writebacks",
     _total("mem.nvm.writes"),
     _total("mem.ctrl.data_writes", "mem.ctrl.counter_writebacks")),
    ("cpu.loads + cpu.stores = cache.l1 accesses",
     _total("cpu.loads", "cpu.stores"), _accesses("l1")),
    ("cache.l2 accesses = cache.l1.misses",
     _accesses("l2"), _total("cache.l1.misses")),
    ("cache.l3 accesses = cache.l2.misses",
     _accesses("l3"), _total("cache.l2.misses")),
    ("cache.l4 accesses = cache.l3.misses",
     _accesses("l4"), _total("cache.l3.misses")),
)


def identity_violations(metrics: Mapping[str, object]) -> List[str]:
    """Each identity that does not hold, with both sides' values."""
    broken = []
    for name, left, right in IDENTITIES:
        lhs, rhs = left(metrics), right(metrics)
        if lhs != rhs:
            broken.append(f"{name}: {lhs} != {rhs}")
    return broken


def check_report(report, expected_digest: Optional[str]) -> List[str]:
    """Problems with one report; empty when it passes every check."""
    problems = identity_violations(report.metrics)
    if expected_digest is not None:
        digest = report_digest(report)
        if digest != expected_digest:
            problems.append(f"digest {digest[:16]} != pinned "
                            f"{expected_digest[:16]}")
    return problems


def load_pins() -> Dict[str, Dict[str, str]]:
    """Pinned digests: workload -> experiment name -> digest."""
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)
