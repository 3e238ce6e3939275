"""System-level telemetry: report-embedded snapshots reconcile with the
classic statistics, survive reset, and round-trip serialisation."""

import json

from repro.sim import System
from repro.sim.system import SystemReport


def run_workload(system, *, pages=2, shred=False):
    ctx = system.new_context(0)
    base = ctx.malloc(4096 * (pages + 1))
    for offset in range(0, 4096 * pages, 8):
        ctx.store_u64(base + offset, offset)
    for offset in range(0, 4096 * pages, 64):
        ctx.load_u64(base + offset)
    if shred and system.shredder_enabled:
        ctx.shred(base, 1)
    return system.report()


class TestReconciliation:
    """ISSUE acceptance: registry totals reconcile with SystemReport."""

    def test_controller_counters_match_report_fields(self, tiny_config):
        report = run_workload(System(tiny_config, shredder=True), shred=True)
        metrics = report.metrics
        assert metrics["mem.ctrl.data_reads"]["value"] == report.memory_reads
        assert metrics["mem.ctrl.data_writes"]["value"] == report.memory_writes
        assert metrics["mem.ctrl.zero_fill_reads"]["value"] \
            == report.zero_fill_reads
        assert metrics["core.shredder.shreds"]["value"] == report.shreds

    def test_counter_cache_metrics_match_extras(self, tiny_config):
        report = run_workload(System(tiny_config, shredder=True))
        metrics = report.metrics
        assert metrics["cache.counter.hits"]["value"] \
            == report.extra["counter_hits"]
        assert metrics["cache.counter.misses"]["value"] \
            == report.extra["counter_misses"]

    def test_device_writes_cover_data_and_counter_traffic(self, tiny_config):
        system = System(tiny_config, shredder=True)
        report = run_workload(system, shred=True)
        metrics = report.metrics
        ctl = system.machine.controller.stats
        # Every NVM device write is a data write-back or a counter
        # write-back; nothing else touches the device in this workload.
        assert metrics["mem.nvm.writes"]["value"] \
            == ctl.data_writes + ctl.counter_writebacks

    def test_device_energy_matches_report(self, tiny_config):
        report = run_workload(System(tiny_config, shredder=True))
        metrics = report.metrics
        assert metrics["mem.nvm.write_energy_pj"]["value"] \
            == report.write_energy_pj
        assert metrics["mem.nvm.read_energy_pj"]["value"] \
            == report.read_energy_pj

    def test_read_latency_histogram_counts_every_fetch(self, tiny_config):
        system = System(tiny_config, shredder=True)
        report = run_workload(system, shred=True)
        histogram = report.metrics["mem.ctrl.read_latency_ns"]
        ctl = system.machine.controller.stats
        assert histogram["count"] == ctl.read_requests
        assert histogram["sum"] == ctl.total_read_latency_ns


class TestDeterminism:
    def test_identical_runs_produce_identical_snapshots(self, tiny_config):
        first = run_workload(System(tiny_config, shredder=True), shred=True)
        second = run_workload(System(tiny_config, shredder=True), shred=True)
        assert json.dumps(first.metrics, sort_keys=True) \
            == json.dumps(second.metrics, sort_keys=True)

    def test_report_round_trips_metrics(self, tiny_config):
        report = run_workload(System(tiny_config, shredder=True))
        rebuilt = SystemReport.from_dict(report.to_dict())
        assert rebuilt.metrics == report.metrics

    def test_as_dict_excludes_metrics(self, tiny_config):
        report = run_workload(System(tiny_config, shredder=True))
        assert "metrics" not in report.as_dict()

    def test_old_documents_without_metrics_still_load(self):
        document = {"name": "legacy", "shredder": True, "extra": {}}
        report = SystemReport.from_dict(document)
        assert report.metrics == {}


class TestReset:
    def test_reset_zeroes_registry_with_stats(self, tiny_config):
        system = System(tiny_config, shredder=True)
        run_workload(system, shred=True)
        system.reset_stats()
        snapshot = system.metrics.snapshot()
        assert snapshot["mem.nvm.writes"]["value"] == 0
        assert snapshot["mem.ctrl.data_writes"]["value"] == 0
        assert snapshot["cache.counter.hits"]["value"] == 0
        assert snapshot["mem.ctrl.read_latency_ns"]["count"] == 0

    def test_stats_keep_accumulating_after_reset(self, tiny_config):
        """The registry-bound stats views stay live across reset_stats
        (replacing them used to orphan the registry's instruments)."""
        system = System(tiny_config, shredder=True)
        run_workload(system)
        system.reset_stats()
        report = run_workload(system)
        assert report.metrics["mem.ctrl.data_writes"]["value"] \
            == report.memory_writes
        assert report.memory_writes > 0 or report.memory_reads > 0


class TestMemoryStatsView:
    def test_merge_adds_per_field(self, tiny_config):
        from repro.mem.stats import MemoryStats
        first = MemoryStats()
        first.record_write(64, 256, 100.0, 10.0)
        second = MemoryStats()
        second.record_write(64, 128, 50.0, 5.0)
        second.record_read(64, 30.0, 2.0)
        first.merge(second)
        assert first.writes == 2
        assert first.reads == 1
        assert first.bits_written == 384
        assert first.write_energy_pj == 15.0

    def test_reset_keeps_binding(self):
        from repro.mem.stats import MemoryStats
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        stats = MemoryStats(registry=registry, prefix="mem.test")
        stats.record_read(64, 10.0, 1.0)
        stats.reset()
        assert stats.reads == 0
        stats.record_read(64, 10.0, 1.0)
        registry.snapshot()     # MemoryStats publishes at snapshot time
        assert registry.get("mem.test.reads").value == 1


class TestMemoryStatsPullPublishing:
    """``MemoryStats`` totals are plain numbers published by a pull
    collector at snapshot time. The values below were recorded from the
    push-counter implementation this replaced; they must not move."""

    FIRST_WINDOW = {
        "mem.channel.bits_written": 58250,
        "mem.channel.bytes_read": 16704,
        "mem.channel.bytes_written": 16384,
        "mem.channel.read_energy_pj": 522000.0,
        "mem.channel.reads": 261,
        "mem.channel.total_read_latency_ns": 20880.0,
        "mem.channel.total_write_latency_ns": 67332.0,
        "mem.channel.write_energy_pj": 4096000.0,
        "mem.channel.writes": 256,
        "mem.ctrl.counter_fetches": 5,
        "mem.ctrl.counter_writebacks": 0,
        "mem.ctrl.data_reads": 256,
        "mem.ctrl.data_writes": 256,
        "mem.ctrl.reencryptions": 0,
        "mem.ctrl.zero_fill_reads": 0,
        "mem.nvm.bits_written": 58250,
        "mem.nvm.bytes_read": 16704,
        "mem.nvm.bytes_written": 16384,
        "mem.nvm.read_energy_pj": 522000.0,
        "mem.nvm.reads": 261,
        "mem.nvm.total_read_latency_ns": 19575.0,
        "mem.nvm.total_write_latency_ns": 38400.0,
        "mem.nvm.write_energy_pj": 4096000.0,
        "mem.nvm.writes": 256,
    }
    SECOND_WINDOW = {
        "mem.channel.bits_written": 43510,
        "mem.channel.bytes_read": 12480,
        "mem.channel.bytes_written": 12288,
        "mem.channel.read_energy_pj": 390000.0,
        "mem.channel.reads": 195,
        "mem.channel.total_read_latency_ns": 15600.0,
        "mem.channel.total_write_latency_ns": 50499.0,
        "mem.channel.write_energy_pj": 3072000.0,
        "mem.channel.writes": 192,
        "mem.ctrl.counter_fetches": 3,
        "mem.ctrl.counter_writebacks": 0,
        "mem.ctrl.data_reads": 192,
        "mem.ctrl.data_writes": 192,
        "mem.ctrl.reencryptions": 0,
        "mem.ctrl.zero_fill_reads": 0,
        "mem.nvm.bits_written": 43510,
        "mem.nvm.bytes_read": 12480,
        "mem.nvm.bytes_written": 12288,
        "mem.nvm.read_energy_pj": 390000.0,
        "mem.nvm.reads": 195,
        "mem.nvm.total_read_latency_ns": 14625.0,
        "mem.nvm.total_write_latency_ns": 28800.0,
        "mem.nvm.write_energy_pj": 3072000.0,
        "mem.nvm.writes": 192,
    }

    @staticmethod
    def memory_counters(system):
        return {name: entry["value"]
                for name, entry in system.metrics.snapshot().items()
                if name.startswith(("mem.nvm.", "mem.channel.", "mem.ctrl."))
                and entry["kind"] == "counter"}

    def test_snapshot_values_match_push_counters(self, tiny_config):
        system = System(tiny_config, shredder=True)
        run_workload(system, pages=4, shred=True)
        assert self.memory_counters(system) == self.FIRST_WINDOW
        # Publishing is idempotent: a second snapshot changes nothing.
        assert self.memory_counters(system) == self.FIRST_WINDOW

    def test_reset_publishes_only_post_reset_totals(self, tiny_config):
        from repro.obs.registry import Counter
        system = System(tiny_config, shredder=True)
        run_workload(system, pages=4, shred=True)
        system.metrics.snapshot()
        system.reset_stats()
        zeroed = self.memory_counters(system)
        assert set(zeroed) == set(self.SECOND_WINDOW)
        assert not any(zeroed.values())
        # Every publish after the reset moves forward from zero
        # (set_total raises on a backwards step, so the snapshots
        # below would fail loudly too).
        published = []
        original = Counter.set_total

        def spy(counter, value):
            published.append((counter.name, counter.value, value))
            original(counter, value)

        Counter.set_total = spy
        try:
            run_workload(system, pages=3, shred=True)
            assert self.memory_counters(system) == self.SECOND_WINDOW
        finally:
            Counter.set_total = original
        assert published
        assert all(new >= old for _name, old, new in published)

    def test_stats_reset_alone_publishes_from_zero(self):
        from repro.mem.stats import MemoryStats
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        stats = MemoryStats(registry=registry, prefix="mem.test")
        stats.record_write(64, 100, 5.0, 1.0)
        assert registry.snapshot()["mem.test.writes"]["value"] == 1
        stats.reset()
        assert registry.snapshot()["mem.test.writes"]["value"] == 0
        stats.record_write(64, 100, 5.0, 1.0)
        assert registry.snapshot()["mem.test.bits_written"]["value"] == 100

    def test_bare_stats_attributes_snapshot_and_merge(self):
        from repro.mem.stats import MemoryStats
        from repro.obs import MetricsRegistry
        first = MemoryStats()
        for i in range(3):
            first.record_read(64, 0.1 * (i + 1), 0.3)
        for i in range(2):
            first.record_write(64, 257 + i, 0.7, 1.1)
        assert first.snapshot() == {
            "reads": 3, "writes": 2, "bytes_read": 192, "bytes_written": 128,
            "bits_written": 515, "read_energy_pj": 0.8999999999999999,
            "write_energy_pj": 2.2, "avg_read_latency_ns": 0.20000000000000004,
            "avg_write_latency_ns": 0.7}
        assert (first.total_energy_pj, first.total_read_latency_ns,
                first.total_write_latency_ns) == (3.1, 0.6000000000000001, 1.4)

        second = MemoryStats()
        second.record_read(32, 1.5, 0.25)
        second.record_write(64, 3, 2.25, 0.5)
        first.merge(second)
        assert first.snapshot() == {
            "reads": 4, "writes": 3, "bytes_read": 224, "bytes_written": 192,
            "bits_written": 518, "read_energy_pj": 1.15,
            "write_energy_pj": 2.7, "avg_read_latency_ns": 0.525,
            "avg_write_latency_ns": 1.2166666666666666}

        registry = MetricsRegistry()
        bound = MemoryStats(registry=registry, prefix="mem.test")
        bound.record_read(64, 0.1, 0.2)
        bound.record_read(64, 0.2, 0.2)
        bound.merge(first)
        assert {name: entry["value"]
                for name, entry in registry.snapshot().items()} == {
            "mem.test.bits_written": 518, "mem.test.bytes_read": 352,
            "mem.test.bytes_written": 192,
            "mem.test.read_energy_pj": 1.5499999999999998,
            "mem.test.reads": 6,
            "mem.test.total_read_latency_ns": 2.4000000000000004,
            "mem.test.total_write_latency_ns": 3.65,
            "mem.test.write_energy_pj": 2.7, "mem.test.writes": 3}
