"""Epoch-batched access-stream engine: the probe-eliding sim hot path.

The scalar API drives the controller one access at a time —
``fetch_block``/``store_block`` per LLC miss or write-back — each call
paying a counter-cache probe. Real miss streams are bursty and
page-local, so the batch engine processes an :class:`AccessBatch`
(structured parallel arrays of address / op / epoch) one epoch at a
time and splits each epoch into **same-page runs** (segments; shreds
stand alone). Only a segment's first access pays a real counter-cache
probe through ``fetch_block``/``store_block``; the rest are guaranteed
hits (the line cannot be evicted between same-page probes), so the
engine hands the resident counter block straight to the controller's
datapath tails (``_fetch_resident``/``_store_resident``) and accounts
the elided probes in bulk through
:meth:`~repro.cache.counter_cache.CounterCache.record_hits`. Every
per-access effect — zero-fill, NVM traffic, crypto, shred events,
re-encryption, counter persistence, stats — happens in the
controller's own datapath, never in a copy here.

Equivalence is the contract: for any batch, :class:`BatchEngine`
produces identical controller / device / channel statistics (and,
functionally, identical data) to :class:`ScalarEngine` replaying the
same accesses. NVM commands are issued per access in original order
because the channel model is order-dependent. Controllers that
override the datapath (DEUCE, direct encryption, i-NVMM) fall back to
the scalar loop transparently.

A batch with a ``cores`` array selects the **hierarchy datapath**: the
stream is issued from the given cores through the full L1-L4 cache
hierarchy (coherence, inclusion, writebacks) instead of straight at
the controller. The scalar engine replays it through
:meth:`~repro.cache.hierarchy.CacheHierarchy.access`; the batch engine
drives the bulk walk
(:meth:`~repro.cache.hierarchy.CacheHierarchy.access_many`) one
epoch-segment at a time, with :class:`HierarchyMissPort` sitting on
the memory boundary to elide the counter probes of zero-fill
(shredded) read runs exactly as the controller-mode engine does.
Latency is accumulated in integer cycles and converted once, so the
per-engine totals are float-identical by construction.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.secure_memory import AccessResult, SecureMemoryController
from ..errors import ExperimentError, SimulationError

#: Access opcodes carried in :attr:`AccessBatch.ops`.
OP_READ = 0
OP_WRITE = 1
OP_SHRED = 2

_VALID_OPS = (OP_READ, OP_WRITE, OP_SHRED)
OP_NAMES = {OP_READ: "read", OP_WRITE: "write", OP_SHRED: "shred"}

#: Simulated nanoseconds between epoch starts (dyadic: exact in floats).
DEFAULT_EPOCH_NS = 1024.0

#: Engine kinds accepted by :func:`make_engine` and ``System(engine=...)``.
ENGINE_KINDS = ("scalar", "batch")


def parse_engine_spec(spec: str) -> str:
    """Validate an engine spec and return it: ``"scalar"`` or
    ``"batch"``. Raises :class:`~repro.errors.ExperimentError` naming
    the valid kinds for anything else."""
    if not isinstance(spec, str):
        raise ExperimentError(f"engine spec must be a string, got "
                              f"{type(spec).__name__}")
    if spec not in ENGINE_KINDS:
        raise ExperimentError(
            f"unknown access engine {spec!r} (expected one of "
            f"{', '.join(ENGINE_KINDS)})")
    return spec


def pattern_block(address: int, block_size: int) -> bytes:
    """Deterministic per-address payload for functional batched stores."""
    word = (address & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    repeats, tail = divmod(block_size, 8)
    return word * repeats + word[:tail]


@dataclass
class AccessBatch:
    """A stream of memory accesses as structured parallel arrays.

    ``addresses[i]`` is the block-aligned physical address (for
    :data:`OP_SHRED`, any address inside the target page), ``ops[i]``
    one of :data:`OP_READ`/:data:`OP_WRITE`/:data:`OP_SHRED`, and
    ``epochs[i]`` a non-decreasing epoch id — all accesses of an epoch
    issue at the same simulated time, one ``epoch_ns`` apart.

    ``data`` optionally carries explicit write payloads (parallel to
    the arrays, ``None`` for non-writes); with ``patterned=True``
    functional stores instead derive a deterministic payload from the
    address via :func:`pattern_block`.

    ``cores`` (optional, parallel) selects the hierarchy datapath: each
    access issues from that core through the L1-L4 caches instead of
    straight at the controller (engines then require an attached
    hierarchy; see :func:`make_engine`).
    """

    addresses: array
    ops: array
    epochs: array
    data: Optional[List[Optional[bytes]]] = None
    patterned: bool = True
    cores: Optional[array] = None

    def __post_init__(self) -> None:
        self.addresses = array("q", self.addresses)
        self.ops = array("b", self.ops)
        self.epochs = array("q", self.epochs)
        n = len(self.addresses)
        if len(self.ops) != n or len(self.epochs) != n:
            raise SimulationError(
                f"AccessBatch arrays disagree on length: {n} addresses, "
                f"{len(self.ops)} ops, {len(self.epochs)} epochs")
        if self.data is not None and len(self.data) != n:
            raise SimulationError(
                f"AccessBatch data payloads ({len(self.data)}) do not "
                f"match {n} accesses")
        if self.cores is not None:
            self.cores = array("q", self.cores)
            if len(self.cores) != n:
                raise SimulationError(
                    f"AccessBatch cores ({len(self.cores)}) do not match "
                    f"{n} accesses")
            for i, core in enumerate(self.cores):
                if core < 0:
                    raise SimulationError(f"AccessBatch core at index {i} "
                                          "is negative")
        previous = None
        for i in range(n):
            if self.ops[i] not in _VALID_OPS:
                raise SimulationError(f"AccessBatch op {self.ops[i]} at "
                                      f"index {i} is not a valid opcode")
            if self.addresses[i] < 0:
                raise SimulationError(f"AccessBatch address at index {i} "
                                      "is negative")
            epoch = self.epochs[i]
            if previous is not None and epoch < previous:
                raise SimulationError("AccessBatch epochs must be "
                                      f"non-decreasing (index {i})")
            previous = epoch

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def num_epochs(self) -> int:
        return (self.epochs[-1] + 1) if len(self.epochs) else 0

    def payload(self, index: int, block_size: int) -> Optional[bytes]:
        """The functional write payload for access ``index``."""
        if self.data is not None and self.data[index] is not None:
            return self.data[index]
        if self.patterned:
            return pattern_block(self.addresses[index], block_size)
        return None

    def epoch_slices(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(epoch, start, stop)`` for each occupied epoch."""
        n = len(self.addresses)
        start = 0
        while start < n:
            epoch = self.epochs[start]
            stop = start + 1
            while stop < n and self.epochs[stop] == epoch:
                stop += 1
            yield epoch, start, stop
            start = stop

    # -- builders ---------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Iterable[Tuple[int, int]], *,
                   epoch_length: int = 256, patterned: bool = True,
                   cores: Optional[Sequence[int]] = None) -> "AccessBatch":
        """Build a batch from ``(address, op)`` pairs, assigning epochs
        every ``epoch_length`` accesses. ``cores`` (parallel to the
        trace) selects the hierarchy datapath."""
        if epoch_length <= 0:
            raise SimulationError("epoch_length must be positive")
        addresses = array("q")
        ops = array("b")
        epochs = array("q")
        for i, (address, op) in enumerate(trace):
            addresses.append(address)
            ops.append(op)
            epochs.append(i // epoch_length)
        core_array = array("q", cores) if cores is not None else None
        return cls(addresses, ops, epochs, patterned=patterned,
                   cores=core_array)

    @classmethod
    def synthetic(cls, num_accesses: int, *, num_pages: int,
                  page_size: int = 4096, block_size: int = 64,
                  read_fraction: float = 0.7, shred_fraction: float = 0.0,
                  locality: float = 0.85, epoch_length: int = 256,
                  seed: int = 1234, patterned: bool = True,
                  num_cores: Optional[int] = None,
                  burst: int = 1) -> "AccessBatch":
        """Deterministic synthetic stream with tunable page locality.

        ``locality`` is the probability the next access stays on the
        current page (high locality produces the page-local runs the
        batch engine exploits; low locality with ``num_pages`` above
        the counter-cache capacity produces a counter-cold stream).
        ``shred_fraction`` injects page shreds (requires a shredder
        controller to execute). ``num_cores`` adds a cores array (the
        hierarchy datapath) with per-page-run core affinity, drawn from
        an independent seeded stream so the address/op sequence is
        unchanged from the controller-mode batch. ``burst`` repeats
        each generated data access back-to-back (temporal reuse of one
        block, the runs the bulk hierarchy walk collapses); the random
        draws per generated access are unchanged, so ``burst=1``
        reproduces the historical stream exactly.
        """
        if num_pages <= 0:
            raise SimulationError("synthetic batch needs at least one page")
        if burst < 1:
            raise SimulationError("synthetic batch burst must be >= 1")
        rng = random.Random(seed)
        blocks_per_page = page_size // block_size
        trace: List[Tuple[int, int]] = []
        jumps: List[bool] = []
        page = 0
        while len(trace) < num_accesses:
            jumped = rng.random() >= locality
            if jumped:
                page = rng.randrange(num_pages)
            if shred_fraction > 0.0 and rng.random() < shred_fraction:
                trace.append((page * page_size, OP_SHRED))
                jumps.append(jumped)
                continue
            address = page * page_size + rng.randrange(blocks_per_page) * block_size
            op = OP_READ if rng.random() < read_fraction else OP_WRITE
            for repeat in range(min(burst, num_accesses - len(trace))):
                trace.append((address, op))
                jumps.append(jumped if repeat == 0 else False)
        cores: Optional[List[int]] = None
        if num_cores is not None:
            if num_cores <= 0:
                raise SimulationError("synthetic batch needs at least "
                                      "one core")
            core_rng = random.Random(seed ^ 0x5EED)
            core = 0
            cores = []
            for jumped in jumps:
                if jumped:
                    core = core_rng.randrange(num_cores)
                cores.append(core)
        return cls.from_trace(trace, epoch_length=epoch_length,
                              patterned=patterned, cores=cores)


@dataclass
class EngineResult:
    """Aggregate outcome of one engine run over a batch."""

    accesses: int = 0
    reads: int = 0
    writes: int = 0
    shreds: int = 0
    zero_fill_reads: int = 0
    reencryptions: int = 0
    total_latency_ns: float = 0.0
    epochs: int = 0
    #: Page-run segments processed (batch engine only; 0 for scalar).
    segments: int = 0
    #: Counter-cache probes elided via bulk hit accounting (batch only).
    bulk_hits: int = 0
    #: True when the batch engine fell back to the scalar loop because
    #: the controller overrides the baseline datapath.
    fallback: bool = False
    #: Bulk-walk counters for hierarchy-mode batch runs
    #: (``runs``/``collapsed``/``fast_hits``/``slow_path``/
    #: ``zero_elided``); ``None`` otherwise. These feed the
    #: ``cache.bulk.*`` bench metrics.
    bulk: Optional[dict] = None
    #: Read outputs in stream order (``collect_data=True`` only).
    data: Optional[List[Optional[bytes]]] = None

    def as_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "data"}
        return out


class HierarchyMissPort:
    """The memory boundary of the bulk hierarchy walk.

    Sits between :meth:`CacheHierarchy.access_many` and the secure
    controller. Normal LLC misses and writebacks pass straight through
    to ``fetch_block``/``store_block``; what the port adds is the same
    probe elision the controller-mode batch engine performs: once a
    real fetch has made a page's counter line resident, subsequent
    zero-fill (shredded) fetches of *that page* go through the
    controller's read tail with the resident counters and the
    counter-hit latency, and only their counter-hit accounting is
    deferred and coalesced into one bulk update.

    The deferral window closes (``flush``) before **any** real
    controller entry — a fetch of another page, a non-zero fetch, a
    writeback, a shred — because any of those may evict the counter
    line whose residence the deferred ``record_hits`` requires.
    """

    def __init__(self, controller: SecureMemoryController) -> None:
        self.ctl = controller
        self._cc = controller.counter_cache
        self._page_size = controller.page_size
        self._offset_of = controller.offset_of
        self._zero = controller.zero_semantics
        self._hit_latency = controller._counter_latency_ns
        self._page = -1        # page whose counter line is known resident
        self._pending = 0      # deferred counter hits on that page
        self.zero_elided = 0   # total controller probes elided (metric)

    def fetch(self, address: int, now_ns: float) -> Tuple[float, bool,
                                                          Optional[bytes]]:
        """Serve one LLC miss; returns ``(latency_ns, zero_filled,
        data)`` exactly as ``fetch_block`` would."""
        ctl = self.ctl
        page = address // self._page_size
        if page == self._page and self._zero:
            counters = self._cc.peek(page)
            if counters is not None and counters.is_shredded(
                    self._offset_of(address)):
                access = ctl._fetch_resident(address, counters,
                                             self._hit_latency, True, now_ns)
                self._pending += 1
                self.zero_elided += 1
                return access.latency_ns, access.zero_filled, access.data
        self.flush()
        access = ctl.fetch_block(address, now_ns)
        self._page = page
        return access.latency_ns, access.zero_filled, access.data

    def writeback(self, address: int, payload: Optional[bytes],
                  now_ns: float) -> None:
        """Route a dirty L4 victim to the controller (closing the
        deferral window first — the store may evict the counter line)."""
        self.flush()
        self._page = -1
        self.ctl.store_block(address, payload, now_ns)

    def flush(self) -> None:
        """Publish the deferred counter hits in bulk."""
        count = self._pending
        if not count:
            return
        self._pending = 0
        self.ctl.stats.counter_hits += count
        self._cc.record_hits(self._page, count)

    def close(self) -> None:
        """Flush and invalidate the window (before shreds / at end)."""
        self.flush()
        self._page = -1


def _tally(result: EngineResult, op: int, access: AccessResult,
           outputs: Optional[List[Optional[bytes]]]) -> None:
    """Fold one controller access into the engine's totals."""
    if op == OP_READ:
        result.reads += 1
        if access.zero_filled:
            result.zero_fill_reads += 1
        if outputs is not None:
            outputs.append(access.data)
    else:
        result.writes += 1
        if access.reencrypted:
            result.reencryptions += 1
    result.total_latency_ns += access.latency_ns


class AccessEngine:
    """Common machinery for the scalar and batch engines."""

    kind = "scalar"

    def __init__(self, controller: SecureMemoryController, *,
                 hierarchy=None, shred_register=None, metrics=None) -> None:
        self.controller = controller
        self.hierarchy = hierarchy
        self.shred_register = shred_register
        self.metrics = metrics

    def run(self, batch: AccessBatch, *, epoch_ns: float = DEFAULT_EPOCH_NS,
            collect_data: bool = False) -> EngineResult:
        raise NotImplementedError

    def _require_hierarchy(self):
        if self.hierarchy is None:
            raise SimulationError(
                "batch carries a cores array (hierarchy datapath) but the "
                "engine has no attached cache hierarchy; build it through "
                "System.access_engine() or pass hierarchy= to make_engine")
        return self.hierarchy

    def _shred(self, address: int, now: float):
        ctl = self.controller
        shred = getattr(ctl, "shred_page", None)
        if shred is None:
            raise SimulationError(
                f"{type(ctl).__name__} has no shred datapath; remove "
                "OP_SHRED accesses or use a shredder controller")
        return shred(address // ctl.page_size, now)

    def _shred_hierarchy(self, address: int, now: float):
        """OP_SHRED on the hierarchy datapath: the full MMIO register
        path (cache invalidation + counter update + MMIO latency).
        Both engines share this helper, so equivalence is structural."""
        register = self.shred_register
        if register is None:
            raise SimulationError(
                "hierarchy batch contains OP_SHRED but no shred register "
                "is attached; use a shredder system or drop the shreds")
        page_size = self.controller.page_size
        return register.write(address - address % page_size,
                              kernel_mode=True, now_ns=now)

    def _publish(self, result: EngineResult) -> None:
        """Bulk-publish the run's totals into the metrics registry.

        Both engines publish the same instruments with the same values
        for equivalent batches, so metrics snapshots stay engine-
        agnostic (the equivalence contract covers them too).
        """
        if self.metrics is None:
            return
        for name, value in (("sim.engine.accesses", result.accesses),
                            ("sim.engine.reads", result.reads),
                            ("sim.engine.writes", result.writes),
                            ("sim.engine.shreds", result.shreds)):
            if value:
                self.metrics.counter(name, unit="ops").inc(value)

    def _finish(self, batch: AccessBatch, result: EngineResult,
                base: float, epoch_ns: float) -> EngineResult:
        result.accesses = len(batch)
        result.epochs = batch.num_epochs
        self.controller.clock.advance_to(base + batch.num_epochs * epoch_ns)
        self._publish(result)
        return result


class ScalarEngine(AccessEngine):
    """Reference engine: the per-access API replayed one call at a time."""

    kind = "scalar"

    def run(self, batch: AccessBatch, *, epoch_ns: float = DEFAULT_EPOCH_NS,
            collect_data: bool = False) -> EngineResult:
        if batch.cores is not None:
            return self._run_hierarchy(batch, epoch_ns=epoch_ns,
                                       collect_data=collect_data)
        ctl = self.controller
        base = ctl.clock.now_ns
        functional = ctl.functional
        block_size = ctl.block_size
        result = EngineResult()
        outputs: Optional[List[Optional[bytes]]] = [] if collect_data else None
        addresses, ops, epochs = batch.addresses, batch.ops, batch.epochs
        for i in range(len(batch)):
            now = base + epochs[i] * epoch_ns
            op = ops[i]
            if op == OP_READ:
                _tally(result, op, ctl.fetch_block(addresses[i], now),
                       outputs)
            elif op == OP_WRITE:
                data = batch.payload(i, block_size) if functional else None
                _tally(result, op, ctl.store_block(addresses[i], data, now),
                       outputs)
            else:
                outcome = self._shred(addresses[i], now)
                result.shreds += 1
                result.total_latency_ns += outcome.latency_ns
        result.data = outputs
        return self._finish(batch, result, base, epoch_ns)

    def _run_hierarchy(self, batch: AccessBatch, *, epoch_ns: float,
                       collect_data: bool) -> EngineResult:
        """Hierarchy datapath, one ``CacheHierarchy.access`` per access.

        Latency is accumulated in integer cycles and converted once
        (``cycle_ns`` is dyadic, so the product is exact), with shred
        latencies summed separately in stream order — the bulk engines
        mirror this accumulation structure so the float totals are
        identical, not merely close.
        """
        hierarchy = self._require_hierarchy()
        ctl = self.controller
        base = ctl.clock.now_ns
        cycle_ns = ctl.config.cpu.cycle_ns
        functional = ctl.functional
        block_size = ctl.block_size
        result = EngineResult()
        outputs: Optional[List[Optional[bytes]]] = [] if collect_data else None
        cores, addresses = batch.cores, batch.addresses
        ops, epochs = batch.ops, batch.epochs
        reencrypt_base = ctl.stats.reencryptions
        total_cycles = 0
        shred_ns = 0.0
        for i in range(len(batch)):
            now = base + epochs[i] * epoch_ns
            op = ops[i]
            if op == OP_SHRED:
                outcome = self._shred_hierarchy(addresses[i], now)
                result.shreds += 1
                shred_ns += outcome.latency_ns
                continue
            is_write = op == OP_WRITE
            data = (batch.payload(i, block_size)
                    if is_write and functional else None)
            access = hierarchy.access(cores[i], addresses[i], is_write,
                                      data=data, now_ns=now)
            total_cycles += access.latency_cycles
            if access.hit_level == "ZERO":
                result.zero_fill_reads += 1
            if is_write:
                result.writes += 1
            else:
                result.reads += 1
                if outputs is not None:
                    outputs.append(access.data)
        result.reencryptions = ctl.stats.reencryptions - reencrypt_base
        result.total_latency_ns = total_cycles * cycle_ns + shred_ns
        result.data = outputs
        return self._finish(batch, result, base, epoch_ns)


class BatchEngine(AccessEngine):
    """Probe-eliding engine: one real counter probe per same-page run."""

    kind = "batch"

    def run(self, batch: AccessBatch, *, epoch_ns: float = DEFAULT_EPOCH_NS,
            collect_data: bool = False) -> EngineResult:
        ctl = self.controller
        if (type(ctl).fetch_block is not SecureMemoryController.fetch_block
                or type(ctl).store_block
                is not SecureMemoryController.store_block):
            # Overridden datapath (DEUCE / direct / i-NVMM): the datapath
            # tails below would bypass the subclass semantics, so replay
            # access-equivalently through the scalar loop.
            result = ScalarEngine(ctl, hierarchy=self.hierarchy,
                                  shred_register=self.shred_register,
                                  metrics=self.metrics).run(
                batch, epoch_ns=epoch_ns, collect_data=collect_data)
            result.fallback = True
            return result
        if batch.cores is not None:
            return self._run_hierarchy_bulk(batch, epoch_ns=epoch_ns,
                                            collect_data=collect_data)

        base = ctl.clock.now_ns
        result = EngineResult()
        outputs: Optional[List[Optional[bytes]]] = [] if collect_data else None
        for epoch, start, stop in batch.epoch_slices():
            now = base + epoch * epoch_ns
            self._run_epoch(batch, start, stop, now, result, outputs)
        result.data = outputs
        return self._finish(batch, result, base, epoch_ns)

    # -- the hierarchy datapath -------------------------------------------

    def _run_hierarchy_bulk(self, batch: AccessBatch, *, epoch_ns: float,
                            collect_data: bool) -> EngineResult:
        """Hierarchy datapath through the bulk walk, one epoch-segment
        per ``access_many`` call, shreds standing alone between them."""
        hierarchy = self._require_hierarchy()
        ctl = self.controller
        base = ctl.clock.now_ns
        cycle_ns = ctl.config.cpu.cycle_ns
        functional = ctl.functional
        block_size = ctl.block_size
        result = EngineResult()
        bulk_totals = {"runs": 0, "collapsed": 0, "fast_hits": 0,
                       "slow_path": 0, "zero_elided": 0}
        outputs: Optional[List[Optional[bytes]]] = [] if collect_data else None
        port = HierarchyMissPort(ctl)
        reencrypt_base = ctl.stats.reencryptions
        total_cycles = 0
        shred_ns = 0.0
        cores, addresses, ops = batch.cores, batch.addresses, batch.ops
        payload = batch.payload
        for epoch, start, stop in batch.epoch_slices():
            now = base + epoch * epoch_ns
            i = start
            while i < stop:
                if ops[i] == OP_SHRED:
                    # The register path enters the controller: close the
                    # port's deferral window first.
                    port.close()
                    outcome = self._shred_hierarchy(addresses[i], now)
                    result.shreds += 1
                    shred_ns += outcome.latency_ns
                    i += 1
                    continue
                j = i + 1
                while j < stop and ops[j] != OP_SHRED:
                    j += 1
                payloads = None
                if functional:
                    payloads = [payload(k, block_size)
                                if ops[k] == OP_WRITE else None
                                for k in range(i, j)]
                bulk = hierarchy.access_many(
                    cores[i:j], addresses[i:j], ops[i:j], now,
                    payloads=payloads, collect_data=collect_data,
                    port=port)
                total_cycles += bulk.latency_cycles
                result.reads += bulk.reads
                result.writes += bulk.writes
                result.zero_fill_reads += bulk.zero_fills
                result.segments += bulk.runs
                result.bulk_hits += bulk.collapsed
                bulk_totals["runs"] += bulk.runs
                bulk_totals["collapsed"] += bulk.collapsed
                bulk_totals["fast_hits"] += bulk.fast_hits
                bulk_totals["slow_path"] += bulk.slow_path
                if outputs is not None and bulk.data:
                    outputs.extend(bulk.data)
                i = j
        port.close()
        bulk_totals["zero_elided"] = port.zero_elided
        result.bulk = bulk_totals
        result.reencryptions = ctl.stats.reencryptions - reencrypt_base
        result.total_latency_ns = total_cycles * cycle_ns + shred_ns
        result.data = outputs
        return self._finish(batch, result, base, epoch_ns)

    # -- the controller datapath ------------------------------------------

    def _run_epoch(self, batch: AccessBatch, start: int, stop: int,
                   now: float, result: EngineResult,
                   outputs: Optional[List[Optional[bytes]]]) -> None:
        """Split one epoch into same-page segments; shreds stand alone."""
        addresses, ops = batch.addresses, batch.ops
        page_size = self.controller.page_size
        i = start
        while i < stop:
            if ops[i] == OP_SHRED:
                outcome = self._shred(addresses[i], now)
                result.shreds += 1
                result.total_latency_ns += outcome.latency_ns
                i += 1
                continue
            page_id = addresses[i] // page_size
            j = i + 1
            while (j < stop and ops[j] != OP_SHRED
                   and addresses[j] // page_size == page_id):
                j += 1
            self._run_segment(batch, i, j, page_id, now, result, outputs)
            result.segments += 1
            i = j

    def _run_segment(self, batch: AccessBatch, start: int, stop: int,
                     page_id: int, now: float, result: EngineResult,
                     outputs: Optional[List[Optional[bytes]]]) -> None:
        """One same-page run: a real probe for the head, then the
        controller's datapath tails with the resident counters."""
        ctl = self.controller
        payload = batch.payload if ctl.functional else None
        block_size = ctl.block_size
        addresses, ops = batch.addresses, batch.ops

        # The head takes the full datapath (real counter-cache probe,
        # miss handling, dirty-eviction persistence, ...).
        op = ops[start]
        if op == OP_READ:
            access = ctl.fetch_block(addresses[start], now)
        else:
            data = payload(start, block_size) if payload else None
            access = ctl.store_block(addresses[start], data, now)
        _tally(result, op, access, outputs)
        if stop - start == 1:
            return

        # The page's counter line is now resident and cannot be evicted
        # by anything this segment does (every access targets the same
        # line), so the remaining probes are guaranteed hits: elide
        # them and account them in bulk at the end.
        counters = ctl.counter_cache.peek(page_id)
        if counters is None:
            raise SimulationError(
                f"page {page_id} counters not resident after segment head")
        hit_latency = ctl._counter_latency_ns
        fetch, store = ctl._fetch_resident, ctl._store_resident
        for index in range(start + 1, stop):
            op = ops[index]
            if op == OP_READ:
                access = fetch(addresses[index], counters, hit_latency,
                               True, now)
            else:
                data = payload(index, block_size) if payload else None
                access = store(addresses[index], data, counters,
                               hit_latency, True, now)
            _tally(result, op, access, outputs)
        inline = stop - start - 1
        ctl.stats.counter_hits += inline
        ctl.counter_cache.record_hits(page_id, inline)
        result.bulk_hits += inline


def make_engine(kind: str, controller: SecureMemoryController, *,
                hierarchy=None, shred_register=None,
                metrics=None) -> AccessEngine:
    """Build an access-stream engine: ``"scalar"`` or ``"batch"``.

    ``hierarchy``/``shred_register`` attach the cache datapath
    (required to run batches that carry a cores array). Unknown specs
    raise :class:`~repro.errors.ExperimentError` naming the valid
    kinds.
    """
    engine_class = (ScalarEngine if parse_engine_spec(kind) == "scalar"
                    else BatchEngine)
    return engine_class(controller, hierarchy=hierarchy,
                        shred_register=shred_register, metrics=metrics)
