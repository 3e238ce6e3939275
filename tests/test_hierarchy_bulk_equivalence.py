"""``access_many`` vs a loop of scalar ``access()``: the bulk contract.

The bulk hierarchy walk must be equivalent access by access and stat by
stat to replaying the same stream through ``CacheHierarchy.access`` —
latencies, hit levels, writebacks, functional payloads, every cache's
stats *and* set state (tags, recency stamps), the coherence directory,
and the memory-side traffic. These tests drive random streams through
two fresh hierarchies over recorded memories and compare everything,
including runs interleaved with ``invalidate_page`` (the shred step-2
datapath).
"""

from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheHierarchy, MemoryFetch
from repro.sim import System

BLOCK = 64
PAGE = 4096
BLOCKS_PER_PAGE = PAGE // BLOCK


class RecordingMemory:
    """Deterministic memory below the hierarchy, recording all traffic."""

    def __init__(self, functional: bool):
        self.functional = functional
        self.fetches: List[int] = []
        self.writebacks: List[tuple] = []
        self.zero_pages = set()

    def miss_handler(self, address: int, now_ns: float) -> MemoryFetch:
        self.fetches.append(address)
        if address // PAGE in self.zero_pages:
            return MemoryFetch(data=bytes(BLOCK), latency_ns=5.0,
                               zero_filled=True)
        payload = ((address % 251).to_bytes(2, "little") * (BLOCK // 2)
                   if self.functional else None)
        return MemoryFetch(data=payload, latency_ns=100.0)

    def writeback_handler(self, address: int, data, now_ns: float) -> None:
        self.writebacks.append((address, data))


def state_signature(hierarchy: CacheHierarchy) -> list:
    """Everything observable about the hierarchy's state and stats."""
    out = []
    for cache in [*hierarchy.l1, *hierarchy.l2, hierarchy.l3, hierarchy.l4]:
        out.append((cache.stats.hits, cache.stats.misses,
                    cache.stats.evictions, cache.stats.dirty_evictions,
                    cache.stats.invalidations, cache.stats.fills,
                    tuple(cache.way_tags),
                    tuple(cache.policy.stamps or [])))
    out.append((hierarchy.zero_fills, hierarchy.memory_fetches,
                hierarchy.writebacks))
    out.append(tuple(sorted(
        (address, entry.owner, entry.state.name, tuple(sorted(entry.sharers)))
        for address, entry in hierarchy.directory._entries.items())))
    return out


def build_pair(tiny_config_factory, functional: bool):
    """Two identical fresh (hierarchy, memory) pairs."""
    pairs = []
    for _ in range(2):
        config = tiny_config_factory()
        if config.functional != functional:
            from dataclasses import replace
            config = replace(config, functional=functional)
        memory = RecordingMemory(functional)
        pairs.append((CacheHierarchy(config, memory.miss_handler,
                                     memory.writeback_handler), memory))
    return pairs


def stream_from(raw, functional: bool):
    """Expand hypothesis tuples into parallel cores/addresses/ops arrays."""
    cores, addresses, ops, payloads = [], [], [], []
    for core, page, block, is_write, repeat in raw:
        address = page * PAGE + block * BLOCK
        for _ in range(repeat):
            cores.append(core)
            addresses.append(address)
            ops.append(is_write)
            payloads.append(bytes([core + 1]) * BLOCK
                            if (is_write and functional) else None)
    return cores, addresses, ops, payloads


def assert_bulk_equivalent(pairs, cores, addresses, ops, payloads,
                           functional):
    (scalar_h, scalar_mem), (bulk_h, bulk_mem) = pairs
    scalar_details = []
    for i in range(len(addresses)):
        access = scalar_h.access(cores[i], addresses[i], ops[i],
                                 data=payloads[i], now_ns=1.0)
        scalar_details.append((access.latency_cycles, access.hit_level,
                               access.data, access.writebacks))
    bulk = bulk_h.access_many(cores, addresses, ops, 1.0,
                              payloads=payloads, collect_data=functional,
                              details=True)
    bulk_details = [(d.latency_cycles, d.hit_level, d.data, d.writebacks)
                    for d in bulk.details]
    assert bulk_details == scalar_details
    assert bulk.latency_cycles == sum(d[0] for d in scalar_details)
    assert bulk.accesses == len(addresses)
    assert state_signature(bulk_h) == state_signature(scalar_h)
    assert bulk_mem.fetches == scalar_mem.fetches
    assert bulk_mem.writebacks == scalar_mem.writebacks
    return bulk


ACCESS_TUPLES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1),     # core
              st.integers(min_value=0, max_value=7),     # page
              st.integers(min_value=0, max_value=15),    # block in page
              st.booleans(),                             # is_write
              st.integers(min_value=1, max_value=4)),    # back-to-back reps
    min_size=1, max_size=80)


class TestAccessManyEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(raw=ACCESS_TUPLES, functional=st.booleans())
    def test_any_stream_matches_scalar_loop(self, tiny_config_factory,
                                            raw, functional):
        pairs = build_pair(tiny_config_factory, functional)
        cores, addresses, ops, payloads = stream_from(raw, functional)
        assert_bulk_equivalent(pairs, cores, addresses, ops, payloads,
                               functional)

    @settings(max_examples=20, deadline=None)
    @given(raw=ACCESS_TUPLES,
           invalidated=st.lists(st.integers(min_value=0, max_value=7),
                                min_size=1, max_size=4),
           split=st.integers(min_value=0, max_value=79))
    def test_invalidate_page_interleavings(self, tiny_config_factory,
                                           raw, invalidated, split):
        """Bulk calls interleaved with page invalidations (shred step 2)
        must leave both machines in the same state as the scalar loop
        with the same invalidations at the same stream position."""
        pairs = build_pair(tiny_config_factory, False)
        (scalar_h, scalar_mem), (bulk_h, bulk_mem) = pairs
        cores, addresses, ops, payloads = stream_from(raw, False)
        split = min(split, len(addresses))

        chunks = [(0, split), (split, len(addresses))]
        for start, stop in chunks:
            for i in range(start, stop):
                scalar_h.access(cores[i], addresses[i], ops[i], now_ns=1.0)
            if stop > start:
                bulk_h.access_many(cores[start:stop], addresses[start:stop],
                                   ops[start:stop], 1.0)
            for page in invalidated:
                one = scalar_h.invalidate_page(page * PAGE, PAGE,
                                               writeback=False, now_ns=1.0)
                two = bulk_h.invalidate_page(page * PAGE, PAGE,
                                             writeback=False, now_ns=1.0)
                assert (one.blocks_invalidated, one.blocks_written_back,
                        one.private_invalidations) == \
                    (two.blocks_invalidated, two.blocks_written_back,
                     two.private_invalidations)
        assert state_signature(bulk_h) == state_signature(scalar_h)
        assert bulk_mem.fetches == scalar_mem.fetches
        assert bulk_mem.writebacks == scalar_mem.writebacks

    def test_zero_filled_pages_match(self, tiny_config_factory):
        """Reads of shredded (zero) pages produce ZERO hits identically."""
        pairs = build_pair(tiny_config_factory, True)
        for _, memory in pairs:
            memory.zero_pages.update({0, 2})
        cores, addresses, ops, payloads = stream_from(
            [(0, page, block, False, 2)
             for page in range(4) for block in range(8)], True)
        bulk = assert_bulk_equivalent(pairs, cores, addresses, ops,
                                      payloads, True)
        levels = {d.hit_level for d in bulk.details}
        assert "ZERO" in levels and bulk.zero_fills > 0

    def test_bulk_counters_cover_the_stream(self, tiny_config_factory):
        pairs = build_pair(tiny_config_factory, False)
        raw = [(0, 0, b % 8, False, 5) for b in range(16)]
        cores, addresses, ops, payloads = stream_from(raw, False)
        bulk = assert_bulk_equivalent(pairs, cores, addresses, ops,
                                      payloads, False)
        assert bulk.runs + bulk.collapsed <= bulk.accesses
        assert bulk.collapsed > 0           # rep-5 runs collapse
        assert bulk.fast_hits + bulk.slow_path == bulk.runs


def count_walks(hierarchy: CacheHierarchy) -> List[int]:
    """Record every access that takes the full walk of ``access()``.

    The L1-hit head returns before the walk aligns the address, so
    ``_align`` runs exactly once per full walk.
    """
    walks: List[int] = []
    align = hierarchy._align

    def spy(address: int) -> int:
        walks.append(address)
        return align(address)

    hierarchy._align = spy
    return walks


class TestScalarFastPath:
    """The L1-hit head of ``access()`` against the bulk transcription.

    Each case replays a fixed stream through both walks (comparing
    details, state signatures and memory traffic, as above) and checks
    which scalar accesses took the full walk.
    """

    A, B = 0, 5 * BLOCK

    def replay(self, tiny_config_factory, stream, functional=False):
        pairs = build_pair(tiny_config_factory, functional)
        walks = count_walks(pairs[0][0])
        cores = [core for core, _, _ in stream]
        addresses = [address for _, address, _ in stream]
        ops = [w for _, _, w in stream]
        payloads = [bytes([i + 1]) * BLOCK if (w and functional) else None
                    for i, w in enumerate(ops)]
        assert_bulk_equivalent(pairs, cores, addresses, ops, payloads,
                               functional)
        return pairs[0][0], walks

    def test_l1_resident_timing_read(self, tiny_config_factory):
        hierarchy, walks = self.replay(tiny_config_factory, [
            (0, self.A, False), (0, self.B, False), (0, self.A + 8, False)])
        assert walks == [self.A, self.B]
        assert hierarchy.l1[0].stats.hits == 1

    def test_store_by_modified_owner(self, tiny_config_factory):
        hierarchy, walks = self.replay(tiny_config_factory, [
            (0, self.A, True), (0, self.B, False), (0, self.A, True)])
        assert walks == [self.A, self.B]
        assert hierarchy.l4.peek(self.A).dirty

    def test_store_to_exclusive_block_upgrades_on_full_walk(
            self, tiny_config_factory):
        hierarchy, walks = self.replay(tiny_config_factory, [
            (0, self.A, False), (0, self.B, False), (0, self.A, True),
            (0, self.B, False), (0, self.A, True)])
        # The read leaves A EXCLUSIVE, so the first store walks; the
        # second finds it MODIFIED and takes the head.
        assert walks == [self.A, self.B, self.A]
        entry = hierarchy.directory._entries[self.A]
        assert (entry.owner, entry.state.name) == (0, "MODIFIED")

    def test_store_to_block_resident_in_other_core(self, tiny_config_factory):
        hierarchy, walks = self.replay(tiny_config_factory, [
            (0, self.A, True), (1, self.A, False), (0, self.A, True),
            (1, self.A, False)])
        # Core 1's read downgrades A to SHARED with both L1s holding
        # it, so core 0's next store walks and invalidates core 1.
        assert walks == [self.A] * 4
        assert hierarchy.directory.stats.invalidations_sent == 1

    def test_functional_stores_never_take_the_head(self, tiny_config_factory):
        stream = [(0, self.A, True), (0, self.B, False), (0, self.A, True),
                  (0, self.A, False)]
        _, walks = self.replay(tiny_config_factory, stream, functional=True)
        assert walks == [self.A, self.B, self.A, self.A]

    @pytest.mark.parametrize("functional", [True, False])
    def test_data_and_merge_stores_never_take_the_head(
            self, tiny_config_factory, functional):
        hierarchy, _ = build_pair(tiny_config_factory, functional)[0]
        walks = count_walks(hierarchy)
        hierarchy.access(0, self.A, True, data=bytes(BLOCK))
        hierarchy.access(0, self.A, True, merge=(8, b"\x07" * 8))
        hierarchy.access(0, self.A, True, data=None, merge=(0, b"\x01"))
        assert walks == [self.A] * 3
        expected = (b"\x01" + bytes(7) + b"\x07" * 8 + bytes(BLOCK - 16)
                    if functional else None)
        assert hierarchy.l4.peek(self.A).payload == expected


class TestTouchTwin:
    """``ExecutionContext.touch`` against the datapath it replaces:
    ``Kernel.translate`` plus ``CacheHierarchy.access`` called
    directly, with the fault stall and core retirement in between."""

    @staticmethod
    def stream(seed: int, pages: int, count: int):
        import random
        rng = random.Random(seed)
        hot = [rng.randrange(pages * PAGE) for _ in range(12)]
        out = []
        for _ in range(count):
            offset = (rng.choice(hot) if rng.random() < 0.7
                      else rng.randrange(pages * PAGE))
            out.append((rng.randrange(2), offset, rng.random() < 0.35))
        return out

    @staticmethod
    def twin_touch(system, ctx, vaddr: int, write: bool) -> None:
        core = ctx.core
        result = system.kernel.translate(ctx.pid, vaddr, write=write,
                                         core=ctx.core_id,
                                         now_ns=core.now_ns)
        if result.fault_ns:
            core.stall(result.fault_ns / system.config.cpu.cycle_ns,
                       fault=True)
        merge = (0, bytes(BLOCK)) if system.machine.functional else None
        access = system.machine.hierarchy.access(
            ctx.core_id, result.physical, write, now_ns=core.now_ns,
            merge=merge if write else None)
        if write:
            core.store(access.latency_cycles)
        else:
            core.load(access.latency_cycles)

    @pytest.mark.parametrize("functional", [False, True])
    def test_touch_matches_translate_plus_access(self, tiny_config_factory,
                                                 functional):
        from dataclasses import asdict, replace
        config = replace(tiny_config_factory(), functional=functional)
        pages = 6
        stream = self.stream(99, pages, 1500)
        systems = [System(config, name="twin") for _ in range(2)]
        bases = []
        for system in systems:
            contexts = [system.new_context(0), system.new_context(1)]
            bases.append([ctx.malloc(pages * PAGE) for ctx in contexts])
        for core_id, offset, write in stream:
            touched = systems[0].contexts[core_id]
            touched.touch(bases[0][core_id] + offset, write=write)
            self.twin_touch(systems[1], systems[1].contexts[core_id],
                            bases[1][core_id] + offset, write)
            touched.compute(3)
            systems[1].contexts[core_id].compute(3)

        one, two = systems
        assert state_signature(one.machine.hierarchy) == \
            state_signature(two.machine.hierarchy)
        assert [asdict(c.stats) for c in one.cores] == \
            [asdict(c.stats) for c in two.cores]
        assert asdict(one.kernel.stats) == asdict(two.kernel.stats)
        assert one.kernel.stats.cow_faults > 0
        assert one.report().to_dict() == two.report().to_dict()
