"""The 4-level cache hierarchy with MESI coherence (Table 1).

Structure: private L1 and L2 per core; shared L3 and L4; one block size
throughout. The hierarchy is inclusive at the last level: every cached
block is resident in L4, and an L4 eviction back-invalidates all upper
levels. Authoritative data for the whole hierarchy lives in the L4
payloads (upper levels are tag-only), which keeps the functional model
simple — a write updates the L4 copy and marks it dirty; dirty L4
victims are written back to the memory controller below.

The hierarchy talks to the world below through two callbacks:

* ``miss_handler(address, now_ns) -> MemoryFetch`` — fetch a block from
  the (secure) memory controller; may report a *zero-filled* block for
  shredded pages that never touch NVM.
* ``writeback_handler(address, data, now_ns) -> None`` — a dirty block
  leaves the hierarchy.

Shredding interacts with the hierarchy through
:meth:`CacheHierarchy.invalidate_page` (step 2 of Figure 6).

Two datapaths serve loads and stores:

* :meth:`CacheHierarchy.access` — the scalar reference walk, one
  Python call per access. Its head is an L1-hit fast path for the
  common case of the closed-loop figures. In timing mode only, it
  serves two cases and returns the same outcome the full walk would:

  - a read of a block resident in the core's L1: one L1 hit and one
    recency touch;
  - a store with no ``data`` or ``merge``, to a block resident in the
    core's L1 whose directory entry is owned by this core in
    ``MODIFIED``: one L1 hit, one recency touch, and the L4 line's
    dirty bit. With that owner and state ``directory.write`` is a
    no-op, because the block's sharers are exactly this core.

  Every other access takes the full walk: misses, an ``EXCLUSIVE`` or
  shared block being stored to, and all functional-mode accesses.
* :meth:`CacheHierarchy.access_many` — the bulk walk: one pass over an
  epoch's aligned-address run with the per-level probes inlined against
  the flat array-backed set state (``way_tags`` + policy stamp arrays),
  consecutive identical accesses collapsed into guaranteed L1 hits, and
  LLC misses routed through an optional duck-typed port so the engine
  above can elide redundant zero-fill controller probes. Step-identical
  to a loop of scalar ``access()`` calls by construction (every branch
  is a transcription) and by test (hypothesis equivalence suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..errors import AddressError
from .cache import _SLOTS, Eviction, SetAssociativeCache
from .coherence import CoherenceDirectory, DirectoryEntry, MESIState


@dataclass
class MemoryFetch:
    """What the memory side returns for an LLC miss."""

    data: Optional[bytes]
    latency_ns: float
    zero_filled: bool = False


@dataclass
class PageInvalidation:
    """What :meth:`CacheHierarchy.invalidate_page` did."""

    blocks_invalidated: int = 0
    blocks_written_back: int = 0
    private_invalidations: int = 0


@dataclass(**_SLOTS)
class HierarchyAccess:
    """Outcome of one load or store issued by a core."""

    address: int
    is_write: bool
    latency_cycles: int
    hit_level: str                      # "L1" | "L2" | "L3" | "L4" | "MEM" | "ZERO"
    data: Optional[bytes] = None
    writebacks: int = 0


@dataclass
class BulkAccessResult:
    """Aggregate outcome of one :meth:`CacheHierarchy.access_many` call.

    The counters mirror what a loop of scalar accesses would have
    produced; the ``runs``/``collapsed``/``fast_hits``/``slow_path``
    fields describe how the bulk walk got there (they feed the
    ``cache.bulk.*`` bench metrics).
    """

    accesses: int = 0
    reads: int = 0
    writes: int = 0
    latency_cycles: int = 0
    zero_fills: int = 0
    memory_fetches: int = 0
    writebacks: int = 0
    runs: int = 0               # distinct (core, block, op) runs walked
    collapsed: int = 0          # accesses absorbed as guaranteed L1 hits
    fast_hits: int = 0          # run heads resolved by an inlined L1-L4 probe
    slow_path: int = 0          # run heads that went below the LLC
    data: Optional[List[Optional[bytes]]] = None       # per-read payloads
    details: Optional[List[HierarchyAccess]] = None    # per-access outcomes


MissHandler = Callable[[int, float], MemoryFetch]
WritebackHandler = Callable[[int, Optional[bytes], float], None]


class CacheHierarchy:
    """Private L1/L2 per core, shared L3/L4, inclusive at L4."""

    def __init__(self, config: SystemConfig,
                 miss_handler: MissHandler,
                 writeback_handler: WritebackHandler) -> None:
        self.config = config
        self.block_size = config.block_size
        self.num_cores = config.cpu.num_cores
        self.miss_handler = miss_handler
        self.writeback_handler = writeback_handler
        self.l1 = [SetAssociativeCache(config.l1) for _ in range(self.num_cores)]
        self.l2 = [SetAssociativeCache(config.l2) for _ in range(self.num_cores)]
        self.l3 = SetAssociativeCache(config.l3)
        self.l4 = SetAssociativeCache(config.l4)
        self.directory = CoherenceDirectory(self.num_cores)
        self._zero_block = bytes(self.block_size)
        self.functional = config.functional
        # Aggregate event counters.
        self.zero_fills = 0
        self.memory_fetches = 0
        self.writebacks = 0

    # -- helpers ---------------------------------------------------------------

    def _align(self, address: int) -> int:
        return address - (address % self.block_size)

    def _private_contains(self, core: int, address: int) -> bool:
        return self.l1[core].contains(address) or self.l2[core].contains(address)

    def _drop_private(self, core: int, address: int) -> None:
        """Remove a block from one core's private caches (no writeback:
        authoritative data is at L4)."""
        self.l1[core].drop(address)
        self.l2[core].drop(address)
        self.directory.evicted(address, core)

    def _handle_l4_eviction(self, eviction: Eviction, now_ns: float,
                            sink: Optional[WritebackHandler] = None) -> int:
        """Back-invalidate an L4 victim everywhere and write back if dirty.

        ``sink`` lets the bulk walk route the writeback through its miss
        port (which must flush deferred zero-fill accounting before any
        real controller entry); ``None`` uses the plain handler.
        """
        address = eviction.address
        self.l3.drop(address)
        for core in self.directory.sharers_of(address):
            self.l1[core].drop(address)
            self.l2[core].drop(address)
        self.directory.invalidate_block(address)
        if eviction.dirty:
            (sink or self.writeback_handler)(address, eviction.payload, now_ns)
            self.writebacks += 1
            return 1
        return 0

    def _install_private(self, core: int, address: int) -> None:
        """Fill the block's tag into the core's L1 and L2."""
        for cache in (self.l1[core], self.l2[core]):
            victim = cache.fill_tag(address)
            if victim >= 0 and not self._private_contains(core, victim):
                self.directory.evicted(core=core, block_address=victim)

    # -- the main access path ------------------------------------------------------

    def access(self, core: int, address: int, is_write: bool,
               data: Optional[bytes] = None, now_ns: float = 0.0,
               merge: Optional[tuple] = None) -> HierarchyAccess:
        """Issue one load or store from ``core`` at ``address``.

        ``data`` is the full-block payload for functional stores;
        alternatively ``merge=(offset, value_bytes)`` performs a
        sub-block store as a read-modify-write of the cached copy.
        Returns the access latency in core cycles and, for loads in
        functional mode, the block's bytes.
        """
        if core < 0 or core >= self.num_cores:
            raise AddressError(f"no such core {core}")
        if not self.functional:
            # L1-hit head (see the module docstring for its exact
            # preconditions); anything else falls through to the walk.
            block = address // self.block_size
            l1 = self.l1[core]
            location = l1._index.get(block)
            if location is not None:
                aligned = block * self.block_size
                if not is_write:
                    l1.stats.hits += 1
                    l1.policy.touch(location[0], location[1])
                    return HierarchyAccess(aligned, False, l1.latency_cycles,
                                           "L1")
                entry = self.directory._entries.get(aligned)
                if (entry is not None and entry.owner == core
                        and entry.state is MESIState.MODIFIED
                        and data is None and merge is None):
                    l4_line = self.l4.peek(aligned)
                    if l4_line is not None:
                        l1.stats.hits += 1
                        l1.policy.touch(location[0], location[1])
                        l4_line.dirty = True
                        return HierarchyAccess(aligned, True,
                                               l1.latency_cycles, "L1")
        address = self._align(address)
        latency = self.config.l1.latency_cycles
        writeback_count = 0

        # Coherence first: a store must gain exclusive ownership even on a
        # private-cache hit; a load miss may downgrade a remote owner.
        if is_write:
            for other in self.directory.write(address, core):
                self.l1[other].drop(address)
                self.l2[other].drop(address)

        hit_level = None
        if self.l1[core].lookup(address) is not None:
            hit_level = "L1"
        else:
            latency += self.config.l2.latency_cycles
            if self.l2[core].lookup(address) is not None:
                hit_level = "L2"
                self.l1[core].fill_tag(address)
            else:
                if not is_write:
                    self.directory.read(address, core)
                latency += self.config.l3.latency_cycles
                if self.l3.lookup(address) is not None:
                    hit_level = "L3"
                    self._install_private(core, address)
                else:
                    latency += self.config.l4.latency_cycles
                    if self.l4.lookup(address) is not None:
                        hit_level = "L4"
                        self.l3.fill_tag(address)
                        self._install_private(core, address)
                    else:
                        fetch = self.miss_handler(address, now_ns)
                        latency += self.config.cpu.ns_to_cycles(fetch.latency_ns)
                        hit_level = "ZERO" if fetch.zero_filled else "MEM"
                        if fetch.zero_filled:
                            self.zero_fills += 1
                        else:
                            self.memory_fetches += 1
                        payload = fetch.data if self.functional else None
                        if payload is None and self.functional:
                            payload = self._zero_block
                        evicted = self.l4.fill(address, payload)
                        if evicted is not None:
                            writeback_count += self._handle_l4_eviction(evicted, now_ns)
                        self.l3.fill_tag(address)
                        self._install_private(core, address)

        if is_write and not self._private_contains(core, address):
            # The store path above may have hit in shared levels only.
            self._install_private(core, address)

        # Reads of blocks not previously owned establish directory state
        # even on private hits (first touch after fill handled above).
        if not is_write and hit_level in ("L1", "L2"):
            # Already a sharer; nothing to do.
            pass

        result_data: Optional[bytes] = None
        l4_line = self.l4.peek(address)
        if l4_line is None:
            # The fill above guarantees residence; guard for safety.
            raise AddressError(f"block {address:#x} missing from L4 after fill")
        if is_write:
            if self.functional:
                if merge is not None:
                    offset, value = merge
                    if offset < 0 or offset + len(value) > self.block_size:
                        raise AddressError("merge write exceeds block bounds")
                    base = l4_line.payload if l4_line.payload is not None \
                        else self._zero_block
                    l4_line.payload = (base[:offset] + bytes(value)
                                       + base[offset + len(value):])
                elif data is not None and len(data) == self.block_size:
                    l4_line.payload = bytes(data)
                else:
                    raise AddressError("functional store needs a full block "
                                       "payload or a merge fragment")
            l4_line.dirty = True
        else:
            result_data = l4_line.payload if self.functional else None

        return HierarchyAccess(address=address, is_write=is_write,
                               latency_cycles=latency, hit_level=hit_level,
                               data=result_data, writebacks=writeback_count)

    # -- the bulk access path ------------------------------------------------------

    def access_many(self, cores: Sequence[int], addresses: Sequence[int],
                    is_writes: Sequence[Any], now_ns: float = 0.0, *,
                    payloads: Optional[Sequence[Optional[bytes]]] = None,
                    collect_data: bool = False, details: bool = False,
                    kernel: Any = None, port: Any = None) -> BulkAccessResult:
        """Issue a whole access stream in one pass (bulk walk).

        Equivalent — access by access, stat by stat — to::

            for core, address, w in zip(cores, addresses, is_writes):
                self.access(core, address, w, ...)

        but dramatically cheaper: the stream is segmented into runs of
        identical ``(core, block, op)`` triples (the ownership pre-pass:
        within a run the head access establishes residence and, for
        stores, exclusive ownership, so the tail is a guaranteed L1 hit
        collapsed into one bulk stats/recency update), and each run head
        is resolved by per-level probes inlined against the flat
        ``_index``/``way_tags``/stamp arrays — verify-at-use against
        live cache state, never a stale prediction.

        ``kernel`` (duck-typed, see :mod:`repro.sim.kernels`) may
        pre-compute block alignment and run boundaries — the numpy
        backend does this vectorised; ``None`` uses an inline loop.
        ``port`` (duck-typed) intercepts the memory boundary: it must
        provide ``fetch(address, now_ns) -> (latency_ns, zero_filled,
        data)``, ``writeback(address, payload, now_ns)`` and
        ``flush()``; ``None`` uses the hierarchy's own handlers.
        ``payloads`` carries per-access full-block store payloads for
        functional mode; ``collect_data`` gathers per-read payloads;
        ``details`` additionally records one :class:`HierarchyAccess`
        per access (the equivalence suite compares these against the
        scalar walk).
        """
        n = len(addresses)
        if len(cores) != n or len(is_writes) != n:
            raise AddressError("access_many: cores/addresses/is_writes "
                               "lengths disagree")
        if payloads is not None and len(payloads) != n:
            raise AddressError("access_many: payloads length disagrees "
                               "with addresses")
        result = BulkAccessResult()
        if n == 0:
            if collect_data:
                result.data = []
            if details:
                result.details = []
            return result

        block_size = self.block_size
        if kernel is not None:
            aligned = kernel.align_blocks(addresses, block_size)
            bounds = kernel.run_bounds(cores, aligned, is_writes)
        else:
            aligned = [a - a % block_size for a in addresses]
            bounds = [0]
            prev_core, prev_addr = cores[0], aligned[0]
            prev_w = bool(is_writes[0])
            for i in range(1, n):
                w = bool(is_writes[i])
                if (aligned[i] != prev_addr or cores[i] != prev_core
                        or w != prev_w):
                    bounds.append(i)
                    prev_core, prev_addr, prev_w = cores[i], aligned[i], w
            bounds.append(n)

        # Pre-bound hot state: one attribute walk for the whole stream.
        num_cores = self.num_cores
        l1s, l2s, l3, l4 = self.l1, self.l2, self.l3, self.l4
        l1_index = [c._index for c in l1s]
        l2_index = [c._index for c in l2s]
        l1_stats = [c.stats for c in l1s]
        l2_stats = [c.stats for c in l2s]
        l1_policy = [c.policy for c in l1s]
        l2_policy = [c.policy for c in l2s]
        l3_index, l4_index = l3._index, l4._index
        l3_stats, l4_stats = l3.stats, l4.stats
        l3_policy, l4_policy = l3.policy, l4.policy
        l4_sets = l4._sets
        directory = self.directory
        dir_entries = directory._entries
        cfg = self.config
        l1_lat = cfg.l1.latency_cycles
        l12_lat = l1_lat + cfg.l2.latency_cycles
        l123_lat = l12_lat + cfg.l3.latency_cycles
        l1234_lat = l123_lat + cfg.l4.latency_cycles
        ns_to_cycles = cfg.cpu.ns_to_cycles
        functional = self.functional
        zero_block = self._zero_block
        modified = MESIState.MODIFIED
        install = self._install_private
        handle_evict = self._handle_l4_eviction

        if port is not None:
            port_fetch = port.fetch
            port_writeback = port.writeback
        else:
            miss_handler = self.miss_handler

            def port_fetch(addr: int, t: float) -> Tuple[float, bool, Any]:
                fetch = miss_handler(addr, t)
                return fetch.latency_ns, fetch.zero_filled, fetch.data

            port_writeback = None      # _handle_l4_eviction uses the handler

        out_data: Optional[List[Optional[bytes]]] = [] if collect_data else None
        out_details: Optional[List[HierarchyAccess]] = [] if details else None
        total_cycles = 0
        reads = writes = 0
        runs = collapsed = fast_hits = slow = 0

        for run_index in range(len(bounds) - 1):
            start = bounds[run_index]
            stop = bounds[run_index + 1]
            core = cores[start]
            address = aligned[start]
            w = bool(is_writes[start])
            if core < 0 or core >= num_cores:
                raise AddressError(f"no such core {core}")
            runs += 1
            block = address // block_size
            writeback_count = 0

            # Coherence first — verify-at-use ownership check. A store
            # by the current M-state owner makes directory.write a pure
            # no-op (invariant: sharers == {core}), and a store to an
            # untracked block creates exactly the entry write() would.
            if w:
                entry = dir_entries.get(address)
                if entry is None:
                    dir_entries[address] = DirectoryEntry({core}, core, modified)
                elif entry.owner == core and entry.state is modified:
                    pass
                else:
                    for other in directory.write(address, core):
                        l1s[other].drop(address)
                        l2s[other].drop(address)

            # Inlined per-level probes (transcription of access()).
            loc = l1_index[core].get(block)
            if loc is not None:
                l1_stats[core].hits += 1
                l1_policy[core].touch(loc[0], loc[1])
                latency = l1_lat
                hit_level = "L1"
                fast_hits += 1
            else:
                l1_stats[core].misses += 1
                loc = l2_index[core].get(block)
                if loc is not None:
                    l2_stats[core].hits += 1
                    l2_policy[core].touch(loc[0], loc[1])
                    l1s[core].fill_tag(address)
                    latency = l12_lat
                    hit_level = "L2"
                    fast_hits += 1
                else:
                    l2_stats[core].misses += 1
                    if not w:
                        directory.read(address, core)
                    loc = l3_index.get(block)
                    if loc is not None:
                        l3_stats.hits += 1
                        l3_policy.touch(loc[0], loc[1])
                        install(core, address)
                        latency = l123_lat
                        hit_level = "L3"
                        fast_hits += 1
                    else:
                        l3_stats.misses += 1
                        loc = l4_index.get(block)
                        if loc is not None:
                            l4_stats.hits += 1
                            l4_policy.touch(loc[0], loc[1])
                            l3.fill_tag(address)
                            install(core, address)
                            latency = l1234_lat
                            hit_level = "L4"
                            fast_hits += 1
                        else:
                            l4_stats.misses += 1
                            fetch_ns, zero_filled, fetched = \
                                port_fetch(address, now_ns)
                            latency = l1234_lat + ns_to_cycles(fetch_ns)
                            if zero_filled:
                                self.zero_fills += 1
                                result.zero_fills += 1
                                hit_level = "ZERO"
                            else:
                                self.memory_fetches += 1
                                result.memory_fetches += 1
                                hit_level = "MEM"
                            slow += 1
                            payload = fetched if functional else None
                            if payload is None and functional:
                                payload = zero_block
                            evicted = l4.fill(address, payload)
                            if evicted is not None:
                                writeback_count += handle_evict(
                                    evicted, now_ns, sink=port_writeback)
                            l3.fill_tag(address)
                            install(core, address)

            if w and not (block in l1_index[core] or block in l2_index[core]):
                install(core, address)

            head_data: Optional[bytes] = None
            if w or functional:
                l4_loc = l4_index.get(block)
                if l4_loc is None:
                    raise AddressError(f"block {address:#x} missing from L4 "
                                       "after fill")
                line = l4_sets[l4_loc[0]][l4_loc[1]]
            else:
                # Timing-mode read: the line's state is not consulted
                # (no payload, no dirty transition), so the post-fill
                # residence guard is left to the inclusion invariant
                # checker rather than probed per access.
                line = None
            if w:
                if functional:
                    store = payloads[start] if payloads is not None else None
                    if store is None or len(store) != block_size:
                        raise AddressError("functional store needs a full "
                                           "block payload or a merge fragment")
                    line.payload = bytes(store)
                line.dirty = True
                writes += 1
            else:
                head_data = line.payload if functional else None
                reads += 1
                if out_data is not None:
                    out_data.append(head_data)
            total_cycles += latency
            result.writebacks += writeback_count
            if out_details is not None:
                out_details.append(HierarchyAccess(
                    address=address, is_write=w, latency_cycles=latency,
                    hit_level=hit_level, data=head_data,
                    writebacks=writeback_count))

            # Collapse the run tail: after the head, the block is
            # private-resident (and, for stores, exclusively owned), so
            # every repeat is an L1 hit with no directory effect.
            count = stop - start - 1
            if count:
                l1_loc = l1_index[core][block]
                l1_stats[core].hits += count
                l1_policy[core].touch_many(l1_loc[0], l1_loc[1], count)
                total_cycles += l1_lat * count
                collapsed += count
                if w:
                    writes += count
                    if functional:
                        # Scalar semantics: each store overwrites the L4
                        # payload in order; only the last survives, but
                        # every payload is validated like access() does.
                        assert payloads is not None
                        for i in range(start + 1, stop):
                            store = payloads[i]
                            if store is None or len(store) != block_size:
                                raise AddressError(
                                    "functional store needs a full block "
                                    "payload or a merge fragment")
                            line.payload = bytes(store)
                    tail_data: Optional[bytes] = None
                else:
                    reads += count
                    tail_data = line.payload if functional else None
                    if out_data is not None:
                        out_data.extend([tail_data] * count)
                if out_details is not None:
                    for _ in range(count):
                        out_details.append(HierarchyAccess(
                            address=address, is_write=w,
                            latency_cycles=l1_lat, hit_level="L1",
                            data=tail_data, writebacks=0))

        if port is not None:
            port.flush()
        result.accesses = n
        result.reads = reads
        result.writes = writes
        result.latency_cycles = total_cycles
        result.runs = runs
        result.collapsed = collapsed
        result.fast_hits = fast_hits
        result.slow_path = slow
        result.data = out_data
        result.details = out_details
        return result

    # -- shred support ------------------------------------------------------------

    def invalidate_page(self, page_address: int, page_size: int, *,
                        writeback: bool, now_ns: float = 0.0) -> "PageInvalidation":
        """Drop every block of a page from the whole hierarchy.

        With ``writeback=True`` (the baseline's non-temporal semantics)
        dirty L4 copies are flushed to memory; Silent Shredder passes
        ``False`` because the page's data is being destroyed anyway.
        """
        result = PageInvalidation()
        for offset in range(0, page_size, self.block_size):
            address = page_address + offset
            for core in self.directory.invalidate_block(address):
                self.l1[core].drop(address)
                self.l2[core].drop(address)
                result.private_invalidations += 1
            self.l3.drop(address)
            evicted = self.l4.invalidate(address)
            if evicted is not None:
                result.blocks_invalidated += 1
                if evicted.dirty and writeback:
                    self.writeback_handler(address, evicted.payload, now_ns)
                    self.writebacks += 1
                    result.blocks_written_back += 1
        return result

    def install_zero_block(self, core: int, address: int) -> None:
        """Install a zero-filled block without a memory fetch (used by
        temporal zeroing through the caches)."""
        address = self._align(address)
        evicted = self.l4.fill(address, self._zero_block if self.functional else None)
        if evicted is not None:
            self._handle_l4_eviction(evicted, 0.0)
        self.l3.fill_tag(address)
        self._install_private(core, address)

    def flush_all(self, now_ns: float = 0.0) -> int:
        """Flush the entire hierarchy (dirty L4 lines written back)."""
        flushed = 0
        for core in range(self.num_cores):
            self.l1[core].flush_all()
            self.l2[core].flush_all()
        self.l3.flush_all()
        for eviction in self.l4.flush_all():
            self.writeback_handler(eviction.address, eviction.payload, now_ns)
            self.writebacks += 1
            flushed += 1
        self.directory = CoherenceDirectory(self.num_cores)
        return flushed

    def check_inclusion(self) -> None:
        """Raise if the L4-inclusion invariant is violated: every block
        resident in any upper level must be resident in L4."""
        resident_l4 = set(self.l4.resident_addresses())
        for cache in [self.l3, *self.l1, *self.l2]:
            for address in cache.resident_addresses():
                if address not in resident_l4:
                    raise AddressError(
                        f"{cache.name}: block {address:#x} cached above a "
                        "non-resident L4 line (inclusion violated)")

    def total_private_hits(self) -> int:
        return sum(c.stats.hits for c in self.l1) + sum(c.stats.hits for c in self.l2)
