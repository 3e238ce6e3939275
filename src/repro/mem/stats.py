"""Counters collected by memory devices and controllers.

The numbers are published to a :class:`~repro.obs.MetricsRegistry`:
construct :class:`MemoryStats` bound to a registry and prefix
(``MemoryStats(registry=reg, prefix="mem.nvm")``) and its totals appear
as counters named ``mem.nvm.reads``, ``mem.nvm.writes`` and so on, which
exporters then dump alongside the rest of the stack. Constructed bare,
it owns a private registry and behaves exactly like the original
dataclass — same attributes, properties and ``snapshot()``.

``record_read``/``record_write`` run once per device or channel
transaction, so they only add to plain attributes. The registry sees
the totals through a pull collector that :meth:`MetricsRegistry.snapshot`
runs, which publishes them with ``Counter.set_total``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:
    # Type-only at module level: mem must not import the telemetry
    # layer at runtime (layering rule REPRO202). The bare-construction
    # default in __init__ imports it lazily instead.
    from ..obs import MetricsRegistry

#: (field, unit) of each counter a MemoryStats view exposes.
_COUNTER_FIELDS = (
    ("reads", "ops"),
    ("writes", "ops"),
    ("bytes_read", "bytes"),
    ("bytes_written", "bytes"),
    ("bits_written", "bits"),
    ("read_energy_pj", "pJ"),
    ("write_energy_pj", "pJ"),
    ("total_read_latency_ns", "ns"),
    ("total_write_latency_ns", "ns"),
)


class MemoryStats:
    """Access counters for one device or controller.

    ``reads``/``writes`` count block transactions; ``bits_written`` counts
    actual cell programs after Data-Comparison-Write / Flip-N-Write, which
    is what endurance and write energy scale with.
    """

    def __init__(self, *, registry: Optional[MetricsRegistry] = None,
                 prefix: str = "mem.device") -> None:
        if registry is None:
            from ..obs import MetricsRegistry as _Registry
            registry = _Registry()
        self.registry = registry
        self.prefix = prefix
        self._counters = {
            name: self.registry.counter(
                f"{prefix}.{name}",  # repro: suppress REPRO402 -- prefix is caller-checked
                unit=unit)
            for name, unit in _COUNTER_FIELDS
        }
        self._zero()
        registry.register_collector(self._publish)

    def _zero(self) -> None:
        for name, _unit in _COUNTER_FIELDS:
            setattr(self, name, 0)

    def _publish(self) -> None:
        """Pull collector: publish the running totals to the registry."""
        for name, counter in self._counters.items():
            counter.set_total(getattr(self, name))

    # -- recording ----------------------------------------------------------------

    def record_read(self, nbytes: int, latency_ns: float, energy_pj: float) -> None:
        self.reads += 1
        self.bytes_read += nbytes
        self.total_read_latency_ns += latency_ns
        self.read_energy_pj += energy_pj

    def record_write(self, nbytes: int, bits_flipped: int, latency_ns: float,
                     energy_pj: float) -> None:
        self.writes += 1
        self.bytes_written += nbytes
        self.bits_written += bits_flipped
        self.total_write_latency_ns += latency_ns
        self.write_energy_pj += energy_pj

    # -- derived values -------------------------------------------------------------

    @property
    def total_energy_pj(self) -> float:
        return self.read_energy_pj + self.write_energy_pj

    @property
    def avg_read_latency_ns(self) -> float:
        return self.total_read_latency_ns / self.reads if self.reads else 0.0

    @property
    def avg_write_latency_ns(self) -> float:
        return self.total_write_latency_ns / self.writes if self.writes else 0.0

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy, convenient for result tables."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "bits_written": self.bits_written,
            "read_energy_pj": self.read_energy_pj,
            "write_energy_pj": self.write_energy_pj,
            "avg_read_latency_ns": self.avg_read_latency_ns,
            "avg_write_latency_ns": self.avg_write_latency_ns,
        }

    # -- aggregation --------------------------------------------------------------

    def merge(self, other: "MemoryStats") -> None:
        """Fold another view's totals into this one (multi-channel /
        multi-device aggregation for exporters; adds, never replaces,
        so repeated snapshots don't double-count)."""
        for name, _unit in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def reset(self) -> None:
        """Zero every total in place, keeping the registry binding.

        The bound counters are zeroed too, so the next publish starts
        from zero instead of going backwards.
        """
        self._zero()
        for counter in self._counters.values():
            counter.reset()
