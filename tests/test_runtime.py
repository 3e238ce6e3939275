"""Execution contexts and simulated arrays."""

import pytest

from repro.errors import AddressError, SimulationError
from repro.runtime import SimArray
from repro.sim import System


@pytest.fixture
def system(tiny_config):
    return System(tiny_config.with_zeroing("shred"), shredder=True)


@pytest.fixture
def ctx(system):
    return system.new_context(0)


class TestTranslationProbe:
    """With no modelled TLB, contexts resolve mapped pages straight from
    the live page table; everything else must still reach the kernel
    and behave exactly as ``Kernel.translate`` does."""

    @staticmethod
    def count_translations(system):
        calls = []
        translate = system.kernel.translate

        def spy(pid, vaddr, **kwargs):
            calls.append((vaddr, kwargs["write"]))
            return translate(pid, vaddr, **kwargs)

        system.kernel.translate = spy
        return calls

    def test_first_read_maps_zero_page_once(self, system, ctx):
        calls = self.count_translations(system)
        base = ctx.malloc(4096)
        for offset in (0, 64, 0, 128):
            ctx.touch(base + offset, write=False)
        assert system.kernel.stats.minor_faults == 1
        assert system.kernel.stats.cow_faults == 0
        entry = system.kernel.processes[ctx.pid].page_table.lookup(
            base // 4096)
        assert entry.ppn == system.kernel.zero_page_ppn
        assert calls == [(base, False)]     # later reads hit the probe

    def test_first_write_after_read_takes_cow_fault(self, system, ctx):
        calls = self.count_translations(system)
        base = ctx.malloc(4096)
        ctx.touch(base, write=False)
        ctx.touch(base + 64, write=True)
        ctx.touch(base + 128, write=True)
        ctx.touch(base + 192, write=False)
        assert system.kernel.stats.minor_faults == 1
        assert system.kernel.stats.cow_faults == 1
        entry = system.kernel.processes[ctx.pid].page_table.lookup(
            base // 4096)
        assert entry.writable and entry.ppn != system.kernel.zero_page_ppn
        # The read-only zero-page mapping sends the write to the kernel.
        assert calls == [(base, False), (base + 64, True)]

    def test_write_to_unmapped_address_raises(self, ctx):
        with pytest.raises(AddressError):
            ctx.touch(0xDEAD0000, write=True)

    def test_negative_address_raises(self, ctx):
        ctx.malloc(4096)
        with pytest.raises(AddressError):
            ctx.touch(-64, write=False)
        with pytest.raises(AddressError):
            ctx.touch(-4096, write=True)

    def test_touch_after_munmap_faults(self, system, ctx):
        region = system.kernel.mmap(ctx.pid, 4096)
        ctx.touch(region.start, write=True)
        system.kernel.munmap(ctx.pid, region)
        with pytest.raises(AddressError):
            ctx.touch(region.start, write=False)
        with pytest.raises(AddressError):
            ctx.touch(region.start, write=True)

    def test_context_after_exit_raises(self, system, ctx):
        base = ctx.malloc(4096)
        ctx.touch(base, write=True)
        ctx.touch(base + 64, write=False)
        table = system.kernel.processes[ctx.pid].page_table
        system.kernel.exit_process(ctx.pid)
        assert len(table) == 0
        with pytest.raises(SimulationError):
            ctx.touch(base, write=False)
        with pytest.raises(SimulationError):
            ctx.touch(base + 64, write=True)


class TestScalarAccess:
    def test_store_load_u64(self, ctx):
        base = ctx.malloc(4096)
        ctx.store_u64(base, 0x1122334455667788)
        assert ctx.load_u64(base) == 0x1122334455667788

    def test_fresh_memory_reads_zero(self, ctx):
        base = ctx.malloc(4096)
        assert ctx.load_u64(base) == 0
        assert ctx.load_u64(base + 512) == 0

    def test_multiple_values_per_block(self, ctx):
        base = ctx.malloc(4096)
        for i in range(8):
            ctx.store_u64(base + 8 * i, i * 1000)
        for i in range(8):
            assert ctx.load_u64(base + 8 * i) == i * 1000

    def test_accesses_advance_core_time(self, ctx):
        before = ctx.core.stats.cycles
        base = ctx.malloc(4096)
        ctx.store_u64(base, 1)
        ctx.load_u64(base)
        assert ctx.core.stats.cycles > before
        assert ctx.core.stats.loads == 1
        assert ctx.core.stats.stores == 1


class TestBytesAccess:
    def test_write_read_bytes_spanning_blocks(self, ctx):
        base = ctx.malloc(4096)
        payload = bytes(range(200))
        ctx.write_bytes(base + 30, payload)
        assert ctx.read_bytes(base + 30, 200) == payload

    def test_read_fresh_is_zero(self, ctx):
        base = ctx.malloc(4096)
        assert ctx.read_bytes(base, 100) == bytes(100)


class TestMemset:
    def test_memset_zeroes(self, ctx):
        base = ctx.malloc(8192)
        ctx.write_bytes(base, b"\xff" * 64)
        ctx.memset(base, 8192, nontemporal=False)
        assert ctx.read_bytes(base, 64) == bytes(64)

    def test_memset_nontemporal_zeroes(self, ctx, system):
        base = ctx.malloc(8192)
        ctx.memset(base, 8192, nontemporal=True)
        system.machine.hierarchy.flush_all()
        assert ctx.read_bytes(base, 64) == bytes(64)

    def test_memset_bad_size(self, ctx):
        base = ctx.malloc(4096)
        with pytest.raises(SimulationError):
            ctx.memset(base, 0)

    def test_auto_selects_nontemporal_for_big_regions(self, ctx, system):
        """Regions larger than the LLC bypass the caches, like glibc."""
        size = system.config.l4.size_bytes * 2
        base = ctx.malloc(size)
        writes_before = system.machine.controller.stats.data_writes
        ctx.memset(base, size)
        assert system.machine.controller.stats.data_writes > writes_before


class TestShredSyscallPath:
    def test_ctx_shred_reads_zero(self, ctx):
        base = ctx.malloc(2 * 4096)
        ctx.store_u64(base, 777)
        ctx.store_u64(base + 4096, 888)
        ctx.shred(base, 2)
        assert ctx.load_u64(base) == 0
        assert ctx.load_u64(base + 4096) == 0


class TestSimArray:
    def test_set_get(self, ctx):
        array = SimArray(ctx, 100, name="t")
        array[5] = 42
        assert array[5] == 42
        assert len(array) == 100

    def test_bounds(self, ctx):
        array = SimArray(ctx, 10)
        with pytest.raises(IndexError):
            array[10]
        with pytest.raises(IndexError):
            array[-1] = 0

    def test_fill_and_shadow(self, ctx):
        array = SimArray(ctx, 20)
        array.fill(7)
        assert array.shadow() == [7] * 20

    def test_load_from(self, ctx):
        array = SimArray(ctx, 5)
        array.load_from([1, 2, 3, 4, 5])
        assert [array[i] for i in range(5)] == [1, 2, 3, 4, 5]

    def test_load_from_overflow(self, ctx):
        array = SimArray(ctx, 2)
        with pytest.raises(SimulationError):
            array.load_from([1, 2, 3])

    def test_verify_functional_consistency(self, ctx):
        array = SimArray(ctx, 50)
        for i in range(50):
            array[i] = i * i
        array.verify()                # memory and shadow agree

    def test_value_masking(self, ctx):
        array = SimArray(ctx, 2)
        array[0] = 1 << 70            # wraps to 64 bits
        assert array[0] == (1 << 70) & ((1 << 64) - 1)

    def test_zero_length_rejected(self, ctx):
        with pytest.raises(SimulationError):
            SimArray(ctx, 0)

    def test_timing_mode_uses_shadow(self, timing_config):
        system = System(timing_config.with_zeroing("shred"), shredder=True)
        ctx = system.new_context(0)
        array = SimArray(ctx, 10)
        array[3] = 99
        assert array[3] == 99         # shadow serves the value
