"""Execution context: one task's window onto the simulated system.

Binds a process (virtual address space) to a core (timing) and exposes
the primitive operations workloads are written against: ``malloc``,
typed loads/stores, ``memset`` (with the temporal/non-temporal split
``libc`` uses), and plain compute. Every memory operation pays for
address translation — including the page-fault and page-zeroing costs
that are the whole point of the paper — and then for the cache/memory
access itself.
"""

from __future__ import annotations

import struct
from typing import Optional

from ..errors import SimulationError


class ExecutionContext:
    """A (process, core) pair executing against the simulated system."""

    def __init__(self, system, pid: int, core_id: int) -> None:
        self.system = system
        self.machine = system.machine
        self.kernel = system.kernel
        self.pid = pid
        self.core_id = core_id
        self.core = system.cores[core_id]
        self.block_size = self.machine.block_size
        self.page_size = system.config.kernel.page_size
        self.functional = self.machine.functional
        self._cycle_ns = system.config.cpu.cycle_ns
        self._issue_cycles = system.config.kernel.store_issue_cycles
        self._l4_bytes = system.config.l4.size_bytes
        self._zero_block = bytes(self.block_size)
        # The process's live page table (not a copy), probed before
        # falling back to Kernel.translate.
        self._page_entries = self.kernel.processes[pid].page_table.entries
        self.tlb = None
        if system.config.cpu.tlb_entries > 0:
            from ..cpu.tlb import TLB
            huge_span = (system.config.kernel.huge_page_size
                         // system.config.kernel.page_size)
            self.tlb = TLB(system.config.cpu.tlb_entries, self.page_size,
                           huge_span=huge_span)
            self._tlb_penalty = system.config.cpu.tlb_miss_penalty_cycles

    # -- memory management -------------------------------------------------------

    def malloc(self, nbytes: int) -> int:
        """Reserve a virtual region (lazily backed, like anonymous mmap)."""
        region = self.kernel.mmap(self.pid, nbytes)
        # malloc itself costs a few instructions of bookkeeping.
        self.core.compute(20)
        return region.start

    # -- translation ----------------------------------------------------------------

    def _translate(self, vaddr: int, *, write: bool) -> int:
        if self.tlb is None:
            # No modelled TLB: a mapped page with sufficient permission
            # resolves exactly as Kernel.translate's first step would.
            # Unmapped pages, writes to read-only (zero-page) mappings
            # and negative addresses fall through to the kernel.
            entry = self._page_entries.get(vaddr // self.page_size)
            if entry is not None and (entry.writable or not write):
                return entry.ppn * self.page_size + vaddr % self.page_size
        else:
            vpn = vaddr // self.page_size
            ppn = self.tlb.lookup(vpn, write=write)
            if ppn is not None:
                return ppn * self.page_size + vaddr % self.page_size
            # Miss: walk the page tables (kernel model), pay the walk.
            self.core.stall(self._tlb_penalty)
        result = self.kernel.translate(self.pid, vaddr, write=write,
                                       core=self.core_id,
                                       now_ns=self.core.now_ns)
        if result.fault_ns:
            self.core.stall(result.fault_ns / self._cycle_ns, fault=True)
        if self.tlb is not None:
            self.tlb.insert(vaddr // self.page_size,
                            result.physical // self.page_size,
                            writable=result.writable, huge=result.huge)
        return result.physical

    # -- scalar accesses ---------------------------------------------------------------

    def load_u64(self, vaddr: int) -> int:
        """Load an 8-byte little-endian integer."""
        physical = self._translate(vaddr, write=False)
        access = self.machine.load(self.core_id, physical, self.core.now_ns)
        self.core.load(access.latency_cycles)
        if not self.functional or access.data is None:
            return 0
        offset = physical % self.block_size
        return struct.unpack_from("<Q", access.data, offset)[0]

    def store_u64(self, vaddr: int, value: int) -> None:
        """Store an 8-byte little-endian integer."""
        physical = self._translate(vaddr, write=True)
        merge = None
        if self.functional:
            merge = (physical % self.block_size,
                     struct.pack("<Q", value & (1 << 64) - 1))
        access = self.machine.store(self.core_id, physical,
                                    now_ns=self.core.now_ns, merge=merge)
        self.core.store(access.latency_cycles)

    def touch(self, vaddr: int, *, write: bool) -> None:
        """Block-granularity timing access without data semantics."""
        physical = self._translate(vaddr, write=write)
        core = self.core
        if write:
            merge = (0, self._zero_block) if self.functional else None
            access = self.machine.hierarchy.access(
                self.core_id, physical, True, now_ns=core.now_ns, merge=merge)
            core.store(access.latency_cycles)
        else:
            access = self.machine.hierarchy.access(
                self.core_id, physical, False, now_ns=core.now_ns)
            core.load(access.latency_cycles)

    # -- bulk operations -----------------------------------------------------------------

    def memset(self, vaddr: int, size: int, *,
               nontemporal: Optional[bool] = None) -> None:
        """Program-level memset(0): the Figure 3/4 microbenchmark core.

        Like glibc, uses temporal stores for small regions and
        non-temporal stores when the region exceeds the LLC (avoiding
        cache pollution). Either way every page is first-touched, so the
        kernel's fault-time zeroing happens underneath.
        """
        if size <= 0:
            raise SimulationError("memset size must be positive")
        if nontemporal is None:
            nontemporal = size > self._l4_bytes

        position = vaddr
        end = vaddr + size
        while position < end:
            physical = self._translate(position, write=True)
            if nontemporal:
                # movntq: bypass the caches; invalidate then write NVM.
                # The write retires through the store buffer at its real
                # completion latency, so sustained memset runs at NVM
                # write bandwidth rather than issue rate.
                self.machine.hierarchy.invalidate_page(
                    physical - physical % self.block_size, self.block_size,
                    writeback=False, now_ns=self.core.now_ns)
                store = self.machine.controller.store_block(
                    physical - physical % self.block_size,
                    self._zero_block if self.functional else None,
                    self.core.now_ns)
                self.core.store(store.latency_ns / self._cycle_ns)
            else:
                merge = (0, self._zero_block) if self.functional else None
                access = self.machine.store(self.core_id, physical,
                                            now_ns=self.core.now_ns,
                                            merge=merge)
                self.core.store(access.latency_cycles)
            position += self.block_size
        if nontemporal:
            self.core.drain_stores()

    def read_bytes(self, vaddr: int, length: int) -> bytes:
        """Functional read of an arbitrary byte range."""
        out = bytearray()
        position = vaddr
        remaining = length
        while remaining > 0:
            physical = self._translate(position, write=False)
            offset = physical % self.block_size
            take = min(self.block_size - offset, remaining)
            access = self.machine.load(self.core_id,
                                       physical - offset, self.core.now_ns)
            self.core.load(access.latency_cycles)
            chunk = access.data if access.data is not None else self._zero_block
            out.extend(chunk[offset:offset + take])
            position += take
            remaining -= take
        return bytes(out)

    def write_bytes(self, vaddr: int, payload: bytes) -> None:
        """Functional write of an arbitrary byte range."""
        position = vaddr
        view = memoryview(payload)
        while view:
            physical = self._translate(position, write=True)
            offset = physical % self.block_size
            take = min(self.block_size - offset, len(view))
            merge = (offset, bytes(view[:take])) if self.functional else None
            access = self.machine.store(self.core_id, physical - offset,
                                        now_ns=self.core.now_ns, merge=merge)
            self.core.store(access.latency_cycles)
            position += take
            view = view[take:]

    # -- compute ------------------------------------------------------------------------------

    def compute(self, instructions: int) -> None:
        """Retire non-memory instructions (ALU work between accesses)."""
        self.core.compute(instructions)

    def shred(self, vaddr: int, num_pages: int) -> None:
        """Section 7.2 syscall: bulk zero-init via the shred command."""
        syscall_ns = self.kernel.sys_shred(self.pid, vaddr, num_pages,
                                           now_ns=self.core.now_ns)
        self.core.stall(syscall_ns / self._cycle_ns)
        self.core.compute(50)   # syscall entry/exit
