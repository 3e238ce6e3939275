"""The batched access-stream engine: builders, equivalence, fallback.

The core contract under test: for any batch, ``BatchEngine`` produces a
system report (stats, metrics snapshot, functional data) identical to
``ScalarEngine`` replaying the same accesses on a fresh system.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CounterCacheConfig, KB
from repro.core import DeuceShredderController
from repro.errors import ExperimentError, SimulationError
from repro.sim import (AccessBatch, BatchEngine, ScalarEngine, System,
                       make_engine)
from repro.sim.batch import (OP_READ, OP_SHRED, OP_WRITE, EngineResult,
                             pattern_block)


def run_engine(config, batch, engine, *, shredder=True, collect_data=False):
    """Run one batch through one engine on a fresh system."""
    system = System(config, shredder=shredder, name="equivalence",
                    engine=engine)
    result = system.access_engine().run(batch, collect_data=collect_data)
    return system, result


def assert_equivalent(config, batch, *, shredder=True, collect_data=False):
    """Scalar and batch runs of ``batch`` must be indistinguishable."""
    scalar_sys, scalar = run_engine(config, batch, "scalar",
                                    shredder=shredder,
                                    collect_data=collect_data)
    batch_sys, batched = run_engine(config, batch, "batch",
                                    shredder=shredder,
                                    collect_data=collect_data)
    assert scalar_sys.report().to_dict() == batch_sys.report().to_dict()
    for field in ("accesses", "reads", "writes", "shreds",
                  "zero_fill_reads", "reencryptions", "epochs"):
        assert getattr(scalar, field) == getattr(batched, field), field
    assert scalar.total_latency_ns == batched.total_latency_ns
    if collect_data:
        assert scalar.data == batched.data
    assert scalar_sys.clock.now_ns == batch_sys.clock.now_ns
    return scalar, batched


class TestAccessBatch:
    def test_from_trace_assigns_epochs(self):
        batch = AccessBatch.from_trace(
            [(0, OP_READ), (64, OP_WRITE), (128, OP_READ)], epoch_length=2)
        assert list(batch.epochs) == [0, 0, 1]
        assert len(batch) == 3
        assert batch.num_epochs == 2
        assert list(batch.epoch_slices()) == [(0, 0, 2), (1, 2, 3)]

    def test_length_mismatch_rejected(self):
        with pytest.raises(SimulationError, match="disagree on length"):
            AccessBatch([0, 64], [OP_READ], [0, 0])

    def test_bad_opcode_rejected(self):
        with pytest.raises(SimulationError, match="not a valid opcode"):
            AccessBatch([0], [7], [0])

    def test_negative_address_rejected(self):
        with pytest.raises(SimulationError, match="negative"):
            AccessBatch([-64], [OP_READ], [0])

    def test_decreasing_epochs_rejected(self):
        with pytest.raises(SimulationError, match="non-decreasing"):
            AccessBatch([0, 64], [OP_READ, OP_READ], [1, 0])

    def test_synthetic_is_deterministic(self):
        kwargs = dict(num_pages=8, read_fraction=0.5, locality=0.7,
                      shred_fraction=0.05, seed=99)
        one = AccessBatch.synthetic(500, **kwargs)
        two = AccessBatch.synthetic(500, **kwargs)
        assert list(one.addresses) == list(two.addresses)
        assert list(one.ops) == list(two.ops)
        assert list(one.epochs) == list(two.epochs)

    def test_patterned_payload(self):
        batch = AccessBatch.from_trace([(4096, OP_WRITE)])
        payload = batch.payload(0, 64)
        assert payload == pattern_block(4096, 64)
        assert len(payload) == 64

    def test_explicit_payload_wins(self):
        blob = bytes(64)
        batch = AccessBatch([4096], [OP_WRITE], [0], data=[blob])
        assert batch.payload(0, 64) is blob


class TestEquivalence:
    def synthetic(self, config, **overrides):
        kwargs = dict(num_pages=12, page_size=config.kernel.page_size,
                      block_size=config.block_size, read_fraction=0.7,
                      locality=0.85, epoch_length=64, seed=7)
        kwargs.update(overrides)
        return AccessBatch.synthetic(overrides.pop("n", 1500), **kwargs)

    def test_functional_mixed_stream(self, tiny_config):
        batch = self.synthetic(tiny_config)
        scalar, batched = assert_equivalent(tiny_config, batch,
                                            collect_data=True)
        assert batched.bulk_hits > 0 and batched.segments > 0
        assert scalar.bulk_hits == 0 and scalar.segments == 0

    def test_with_shreds_and_zero_fills(self, tiny_config):
        batch = self.synthetic(tiny_config, shred_fraction=0.02)
        scalar, batched = assert_equivalent(tiny_config, batch,
                                            collect_data=True)
        assert scalar.shreds > 0 and scalar.zero_fill_reads > 0

    def test_low_locality_counter_cold(self, tiny_config):
        batch = self.synthetic(tiny_config, num_pages=512, locality=0.1)
        assert_equivalent(tiny_config, batch)

    def test_timing_only_config(self, timing_config):
        batch = self.synthetic(timing_config, shred_fraction=0.01)
        assert_equivalent(timing_config, batch)

    def test_baseline_without_shredder(self, tiny_config):
        batch = self.synthetic(tiny_config, shred_fraction=0.0)
        assert_equivalent(tiny_config, batch, shredder=False)

    def test_minor_overflow_reencryption(self, tiny_config):
        # A write-hot single page overflows 7-bit minors mid-segment.
        batch = AccessBatch.synthetic(
            20000, num_pages=1, page_size=tiny_config.kernel.page_size,
            block_size=tiny_config.block_size, read_fraction=0.0,
            locality=1.0, epoch_length=512, seed=3)
        scalar, batched = assert_equivalent(tiny_config, batch)
        assert scalar.reencryptions > 0

    def test_shred_on_plain_controller_raises(self, tiny_config):
        batch = AccessBatch([0], [OP_SHRED], [0])
        system = System(tiny_config, shredder=False)
        with pytest.raises(SimulationError, match="no shred datapath"):
            system.access_engine("batch").run(batch)


class TestEquivalenceProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=16 * 4096 - 64),
                  st.sampled_from([OP_READ, OP_WRITE, OP_READ, OP_SHRED])),
        min_size=1, max_size=120),
        st.integers(min_value=1, max_value=32))
    def test_any_trace_is_engine_agnostic(self, tiny_config_factory, trace,
                                          epoch_length):
        config = tiny_config_factory()
        block = config.block_size
        aligned = [(address // block * block, op) for address, op in trace]
        batch = AccessBatch.from_trace(aligned, epoch_length=epoch_length)
        assert_equivalent(config, batch, collect_data=True)


class TestDatapathEffects:
    """Every controller-state effect the batch engine reaches through
    the controller's datapath tails, pinned against the scalar engine
    down to the device contents: write-through counter persistence and
    its Merkle update, zero-fill reads, shredded write-backs and
    minor-counter overflow with page re-encryption."""

    HOT_WRITES = 135        # > 127: overflows a 7-bit minor counter

    def config(self, tiny_config):
        counter_cache = CounterCacheConfig(size_bytes=8 * KB,
                                           write_policy="writethrough")
        encryption = replace(tiny_config.encryption, integrity=True)
        return replace(tiny_config, encryption=encryption,
                       counter_cache=counter_cache)

    def run_both(self, config, batch):
        systems = []
        for engine in ("scalar", "batch"):
            system = System(config, shredder=True, name="effects",
                            engine=engine)
            result = system.access_engine().run(batch, collect_data=True)
            systems.append((system, result))
        return systems

    def assert_identical(self, systems):
        (one, scalar), (two, batched) = systems
        assert one.report().to_dict() == two.report().to_dict()
        assert scalar.data == batched.data
        assert scalar.total_latency_ns == batched.total_latency_ns
        ctl_one, ctl_two = one.machine.controller, two.machine.controller
        assert ctl_one.merkle is not None
        assert ctl_one.merkle.root == ctl_two.merkle.root
        device_one, device_two = ctl_one.device, ctl_two.device
        block = ctl_one.block_size
        for address in range(0, device_one.capacity_bytes, block):
            assert device_one.peek(address) == device_two.peek(address), \
                hex(address)
        kinds = {event["kind"] for event in one.report().events}
        assert {"zero_fill", "shredded_writeback", "minor_overflow",
                "iv_regen"} <= kinds
        assert ctl_one.stats.counter_writebacks > 0
        assert ctl_one.stats.reencryptions > 0
        return batched

    def test_controller_mode(self, tiny_config):
        config = self.config(tiny_config)
        # One hot block written past minor overflow inside same-page
        # segments, then a shred-heavy mixed stream.
        trace = []
        for i in range(self.HOT_WRITES):
            trace += [(0, OP_WRITE), ((i % 64) * 64, OP_READ)]
        mixed = AccessBatch.synthetic(
            3000, num_pages=6, page_size=config.kernel.page_size,
            block_size=config.block_size, read_fraction=0.5,
            locality=0.95, shred_fraction=0.02, epoch_length=64, seed=17)
        trace += list(zip(mixed.addresses, mixed.ops))
        batch = AccessBatch.from_trace(trace, epoch_length=64)
        batched = self.assert_identical(self.run_both(config, batch))
        assert batched.bulk_hits > 0

    def test_hierarchy_mode(self, tiny_config):
        config = self.config(tiny_config)
        # Write one block, then evict it from L4 by reading the other
        # eight blocks of its set: every round writes it back, so its
        # minor counter overflows at the controller.
        l4_sets = config.l4.size_bytes // (config.l4.associativity * 64)
        stride = l4_sets * config.block_size
        trace = []
        for _ in range(self.HOT_WRITES):
            trace.append((0, OP_WRITE))
            trace += [(way * stride, OP_READ)
                      for way in range(1, config.l4.associativity + 1)]
        cores = [0] * len(trace)
        mixed = AccessBatch.synthetic(
            4000, num_pages=40, page_size=config.kernel.page_size,
            block_size=config.block_size, read_fraction=0.5,
            locality=0.9, shred_fraction=0.02, epoch_length=64, seed=17,
            num_cores=2)
        trace += list(zip(mixed.addresses, mixed.ops))
        cores += list(mixed.cores)
        batch = AccessBatch.from_trace(trace, epoch_length=64, cores=cores)
        batched = self.assert_identical(self.run_both(config, batch))
        assert batched.bulk["zero_elided"] > 0


class TestFallback:
    def test_overridden_datapath_falls_back(self, tiny_config):
        batch = AccessBatch.synthetic(
            300, num_pages=4, page_size=tiny_config.kernel.page_size,
            block_size=tiny_config.block_size, seed=11)
        reference = ScalarEngine(
            DeuceShredderController(tiny_config, epoch_interval=8))
        scalar = reference.run(batch, collect_data=True)
        engine = BatchEngine(
            DeuceShredderController(tiny_config, epoch_interval=8))
        result = engine.run(batch, collect_data=True)
        assert result.fallback is True
        assert scalar.fallback is False
        assert result.data == scalar.data
        assert result.total_latency_ns == scalar.total_latency_ns

    def test_baseline_controller_does_not_fall_back(self, tiny_config):
        batch = AccessBatch.from_trace([(0, OP_READ)] * 4)
        system = System(tiny_config, shredder=True)
        result = system.access_engine("batch").run(batch)
        assert result.fallback is False
        assert result.segments == 1 and result.bulk_hits == 3


class TestEngineSelection:
    def test_unknown_engine_rejected_by_system(self, tiny_config):
        with pytest.raises(ExperimentError,
                           match="scalar, batch"):
            System(tiny_config, engine="vliw")

    def test_unknown_engine_rejected_by_factory(self, tiny_config):
        system = System(tiny_config)
        for spec in ("vliw", "vector", "batch:numpy"):
            with pytest.raises(ExperimentError,
                               match="unknown access engine"):
                make_engine(spec, system.machine.controller)

    def test_unknown_error_names_every_valid_kind(self, tiny_config):
        system = System(tiny_config)
        with pytest.raises(ExperimentError) as excinfo:
            make_engine("simd", system.machine.controller)
        message = str(excinfo.value)
        for kind in ("scalar", "batch"):
            assert kind in message

    def test_system_default_is_scalar(self, tiny_config):
        system = System(tiny_config)
        assert isinstance(system.access_engine(), ScalarEngine)
        assert isinstance(system.access_engine("batch"), BatchEngine)

    def test_result_as_dict_drops_payloads(self):
        result = EngineResult(accesses=3, data=[b"x"])
        as_dict = result.as_dict()
        assert "data" not in as_dict
        assert as_dict["accesses"] == 3

    def test_engines_publish_identical_metrics(self, tiny_config):
        batch = AccessBatch.synthetic(
            400, num_pages=6, page_size=tiny_config.kernel.page_size,
            block_size=tiny_config.block_size, seed=5)
        snapshots = []
        for engine in ("scalar", "batch"):
            system = System(tiny_config, engine=engine)
            system.access_engine().run(batch)
            snapshot = system.metrics.snapshot()
            snapshots.append({name: entry for name, entry
                              in snapshot.items()
                              if name.startswith("sim.engine.")})
        assert snapshots[0] == snapshots[1]
        assert snapshots[0]     # the engines do publish something
