"""The flight recorder: coalescing, sampling, report embedding, and
the cross-engine identity contract (the same experiment must log the
same events whichever access engine executed it)."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs import (EVENT_KINDS, EventRecorder, filter_events,
                       format_event, write_events_jsonl)
from repro.sim import AccessBatch, System


class TestEventRecorder:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown event kind"):
            EventRecorder().emit("meltdown", 0, 0)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            EventRecorder(capacity=-1)
        with pytest.raises(ObservabilityError):
            EventRecorder(sample_every=0)

    def test_records_are_json_safe_and_ordered(self):
        recorder = EventRecorder()
        recorder.emit("shred", 3, 100)
        recorder.emit("zero_fill", 3, 150)
        recorder.emit("minor_overflow", 1, 200, block=7)
        snapshot = recorder.snapshot()
        assert [e["kind"] for e in snapshot] \
            == ["shred", "zero_fill", "minor_overflow"]
        assert snapshot[2]["block"] == 7
        assert "block" not in snapshot[0]
        json.dumps(snapshot)        # must not raise

    def test_coalescing_sums_counts_keeps_first_time(self):
        recorder = EventRecorder()
        recorder.emit("zero_fill", 5, 100)
        recorder.emit("zero_fill", 5, 200, count=3)
        assert recorder.snapshot() == [
            {"kind": "zero_fill", "page": 5, "time_ns": 100, "count": 4}]
        assert recorder.emitted == 4 and recorder.recorded == 1

    def test_block_breaks_coalescing(self):
        recorder = EventRecorder()
        recorder.emit("shredded_writeback", 5, 100, block=0)
        recorder.emit("shredded_writeback", 5, 110, block=1)
        assert recorder.recorded == 2

    def test_integral_float_time_serialises_as_int(self):
        recorder = EventRecorder()
        recorder.emit("shred", 0, 5.0)
        recorder.emit("shred", 1, 5.5)
        lines = [format_event(e) for e in recorder.snapshot()]
        assert '"time_ns":5' in lines[0]
        assert '"time_ns":5.5' in lines[1]

    def test_capacity_bound(self):
        recorder = EventRecorder(capacity=2)
        for page in range(5):
            recorder.emit("shred", page, page)
        assert recorder.recorded == 2
        assert recorder.dropped == 3
        assert recorder.emitted == 5

    def test_sampling_keeps_every_nth_distinct_record(self):
        recorder = EventRecorder(sample_every=2)
        for page in range(6):
            recorder.emit("shred", page, page)
        assert [e["page"] for e in recorder.snapshot()] == [0, 2, 4]
        assert recorder.dropped == 3

    def test_coalescing_into_a_dropped_tail(self):
        # Sampling must not change which emissions coalesce: a repeat
        # of a dropped record still folds into it instead of counting
        # as a new distinct record.
        recorder = EventRecorder(sample_every=2)
        recorder.emit("shred", 0, 0)        # kept (seq 1)
        recorder.emit("shred", 1, 1)        # dropped (seq 2)
        recorder.emit("shred", 1, 2)        # coalesces into the drop
        recorder.emit("shred", 2, 3)        # kept (seq 3)
        assert [e["page"] for e in recorder.snapshot()] == [0, 2]
        assert recorder.emitted == 4 and recorder.dropped == 1

    def test_clear(self):
        recorder = EventRecorder()
        recorder.emit("shred", 0, 0)
        recorder.clear()
        assert recorder.snapshot() == []
        assert (recorder.emitted, recorder.recorded, recorder.dropped) \
            == (0, 0, 0)

    def test_snapshot_is_a_copy(self):
        recorder = EventRecorder()
        recorder.emit("shred", 0, 0)
        recorder.snapshot()[0]["page"] = 99
        assert recorder.snapshot()[0]["page"] == 0


class TestExport:
    EVENTS = [{"kind": "shred", "page": 1, "time_ns": 10, "count": 1},
              {"kind": "zero_fill", "page": 2, "time_ns": 20, "count": 8}]

    def test_format_event_is_canonical(self):
        assert format_event(self.EVENTS[0]) \
            == '{"count":1,"kind":"shred","page":1,"time_ns":10}'

    def test_filter_none_passes_everything(self):
        assert list(filter_events(self.EVENTS, None)) == self.EVENTS

    def test_filter_matches_rendered_line(self):
        kept = list(filter_events(self.EVENTS, '"kind":"zero_fill"'))
        assert [e["page"] for e in kept] == [2]

    def test_write_events_jsonl_counts_lines(self):
        stream = io.StringIO()
        assert write_events_jsonl(self.EVENTS, stream) == 2
        lines = stream.getvalue().splitlines()
        assert [json.loads(line)["kind"] for line in lines] \
            == ["shred", "zero_fill"]


def shred_heavy_batch(config, *, accesses=800, seed=11):
    return AccessBatch.synthetic(
        accesses, num_pages=10, page_size=config.kernel.page_size,
        block_size=config.block_size, read_fraction=0.6, locality=0.8,
        shred_fraction=0.1, epoch_length=64, seed=seed)


class TestReportEmbedding:
    def run_system(self, config, batch, engine):
        system = System(config, shredder=True, name="events", engine=engine)
        system.access_engine().run(batch)
        return system

    def test_events_reach_the_report_and_round_trip(self, tiny_config):
        from repro.sim.system import SystemReport
        system = self.run_system(tiny_config, shred_heavy_batch(tiny_config),
                                 "scalar")
        report = system.report()
        kinds = {e["kind"] for e in report.events}
        assert "shred" in kinds and "zero_fill" in kinds
        for event in report.events:
            assert event["kind"] in EVENT_KINDS
        clone = SystemReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert clone.events == report.events
        assert clone.to_dict() == report.to_dict()

    def test_obs_counters_published(self, tiny_config):
        system = self.run_system(tiny_config, shred_heavy_batch(tiny_config),
                                 "scalar")
        snapshot = system.metrics.snapshot()
        events = system.events
        assert snapshot["obs.events.emitted"]["value"] == events.emitted > 0
        assert snapshot["obs.events.recorded"]["value"] == events.recorded
        assert snapshot["obs.events.dropped"]["value"] == events.dropped

    def test_reset_stats_discards_warmup_events(self, tiny_config):
        system = self.run_system(tiny_config, shred_heavy_batch(tiny_config),
                                 "scalar")
        assert system.events.recorded > 0
        system.reset_stats()
        assert system.report().events == []


class TestEngineIdentity:
    """The acceptance contract: for one experiment the flight-recorder
    stream is byte-identical whichever engine executed it."""

    def canonical(self, config, batch, engine):
        system = System(config, shredder=True, name="identity",
                        engine=engine)
        system.access_engine().run(batch)
        return "\n".join(format_event(e)
                         for e in system.report().events)

    @pytest.mark.parametrize("engine", ["batch"])
    def test_shred_heavy_stream_matches_scalar(self, tiny_config, engine):
        batch = shred_heavy_batch(tiny_config)
        assert self.canonical(tiny_config, batch, engine) \
            == self.canonical(tiny_config, batch, "scalar")

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16),
           shred_fraction=st.sampled_from([0.0, 0.05, 0.2]),
           read_fraction=st.floats(0.2, 0.9),
           accesses=st.integers(50, 400))
    def test_random_streams_match_across_engines(
            self, tiny_config_factory, seed, shred_fraction, read_fraction,
            accesses):
        config = tiny_config_factory()
        batch = AccessBatch.synthetic(
            accesses, num_pages=6, page_size=config.kernel.page_size,
            block_size=config.block_size, read_fraction=read_fraction,
            locality=0.75, shred_fraction=shred_fraction, epoch_length=32,
            seed=seed)
        scalar = self.canonical(config, batch, "scalar")
        assert self.canonical(config, batch, "batch") == scalar
