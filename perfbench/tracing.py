"""Per-layer host-time attribution, measured from outside ``src/``.

:func:`installed` replaces each layer's public entry points (listed in
:data:`LAYERS`) at class level with a wrapper that opens a span around
the call, and puts the originals back on exit. Install before any
``System`` is built: ``Machine`` binds controller callbacks into the
cache hierarchy at construction, so a wrapper installed later would be
bypassed by those bound methods.

A span records its layer, start and end (host ``perf_counter_ns``) and
its parent; every span of one experiment shares one trace id, and the
experiment itself is the root span, named ``sim``. A call into a layer
that is already on the span stack opens no new span, so re-entry (a
subclass calling ``super()``, a channel request inside a memory-
controller write) counts once. Self time is a span's duration minus the
durations of its child spans; summed over one trace, the self times of
all layers plus the root's equal the root's duration exactly.

This module deliberately does not use ``repro.obs``, which is itself a
measured layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from typing import Callable, Dict, Iterator, List, Tuple

#: layer -> ((module, class, entry points), ...). Subclasses that
#: override an entry point are wrapped too.
LAYERS: Tuple[Tuple[str, Tuple[Tuple[str, str, Tuple[str, ...]], ...]],
              ...] = (
    ("runtime", (("repro.runtime.context", "ExecutionContext",
                  ("touch", "load_u64", "store_u64", "memset", "read_bytes",
                   "write_bytes", "malloc", "shred")),)),
    ("kernel", (("repro.kernel.kernel", "Kernel",
                 ("translate", "mmap", "munmap", "sys_shred")),
                ("repro.kernel.zeroing", "ZeroingEngine", ("zero_page",)))),
    ("cpu", (("repro.cpu.core", "Core",
              ("compute", "load", "store", "stall", "drain_stores")),
             ("repro.cpu.tlb", "TLB", ("lookup", "insert")))),
    ("cache", (("repro.cache.hierarchy", "CacheHierarchy",
                ("access", "invalidate_page", "install_zero_block",
                 "flush_all")),)),
    ("counter_cache", (("repro.cache.counter_cache", "CounterCache",
                        ("lookup", "fill", "invalidate", "flush")),)),
    ("core", (("repro.core.secure_memory", "SecureMemoryController",
               ("fetch_block", "store_block")),
              ("repro.core.shredder", "SilentShredderController",
               ("shred_page",)),
              ("repro.core.shredder", "ShredRegister", ("write",)))),
    ("mem", (("repro.mem.controller", "MemoryController",
              ("read_block", "write_block")),
             ("repro.mem.channel", "ChannelModel", ("request",)))),
    ("crypto", (("repro.crypto.ctr", "CounterModeEngine",
                 ("pad_for_iv", "pads_for_ivs", "encrypt", "decrypt",
                  "decrypt_many")),)),
    ("obs", (("repro.obs.registry", "Counter", ("inc",)),
             ("repro.obs.registry", "Gauge", ("set", "inc")),
             ("repro.obs.registry", "Histogram",
              ("observe", "observe_many")),
             ("repro.obs.events", "EventRecorder", ("emit",)))),
)

ROOT = "sim"
LAYER_NAMES = tuple(name for name, _ in LAYERS)


class Tracer:
    """In-memory span recorder with online self-time accounting.

    ``self_ns`` and ``calls`` cover every span. The span list keeps the
    first ``spans_per_trace`` spans of each trace plus every root, so a
    traced sweep of millions of calls stays within a few megabytes;
    each trace summary says how many spans were not kept.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 spans_per_trace: int = 4096) -> None:
        self.clock = clock
        self.spans_per_trace = spans_per_trace
        self.names = (ROOT,) + LAYER_NAMES
        self.self_ns = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.depth = [0] * len(self.names)
        #: (trace id, span id, parent span id, name, start ns, end ns)
        self.spans: List[Tuple[int, int, int, str, int, int]] = []
        #: one summary dict per finished trace
        self.traces: List[Dict[str, object]] = []
        self.stack: List[list] = []
        self._trace_id = 0
        self._span_id = 0
        self._kept = 0
        self._label = ""
        self._base_self: List[int] = []
        self._base_calls: List[int] = []

    # -- spans ------------------------------------------------------------------

    def enter(self, index: int) -> None:
        """Open a span for layer ``self.names[index]``."""
        self.depth[index] += 1
        self._span_id += 1
        self.stack.append([index, self.clock(), 0, self._span_id])

    def exit(self) -> None:
        """Close the innermost open span."""
        end = self.clock()
        index, start, child_ns, span_id = self.stack.pop()
        duration = end - start
        self.self_ns[index] += duration - child_ns
        self.calls[index] += 1
        self.depth[index] -= 1
        parent_id = 0
        if self.stack:
            parent = self.stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        if self._kept < self.spans_per_trace or not self.stack:
            self._kept += 1
            self.spans.append((self._trace_id, span_id, parent_id,
                               self.names[index], start, end))

    # -- traces -----------------------------------------------------------------

    def begin_trace(self, label: str) -> None:
        """Open the root span of one experiment under a new trace id."""
        if self.stack:
            raise RuntimeError("a trace is already open")
        self._trace_id += 1
        self._kept = 0
        self._label = label
        self._base_self = list(self.self_ns)
        self._base_calls = list(self.calls)
        self.enter(0)

    def end_trace(self) -> Dict[str, object]:
        """Close the root span and return the trace's summary."""
        start = self.stack[0][1]
        self.exit()
        root = self.spans[-1]
        summary = {
            "trace": self._trace_id,
            "experiment": self._label,
            "wall_ns": root[5] - start,
            "self_ns": {name: self.self_ns[i] - self._base_self[i]
                        for i, name in enumerate(self.names)},
            "calls": {name: self.calls[i] - self._base_calls[i]
                      for i, name in enumerate(self.names[1:], 1)},
        }
        summary["spans_dropped"] = (sum(summary["calls"].values()) + 1
                                    - self._kept)
        self.traces.append(summary)
        return summary

    def write(self, path, header: Dict[str, object]) -> None:
        """Write the header, the trace summaries and the kept spans as
        JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "header", **header}) + "\n")
            for summary in self.traces:
                handle.write(json.dumps({"kind": "trace", **summary}) + "\n")
            for trace, span, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "kind": "span", "trace": trace, "span": span,
                    "parent": parent, "name": name, "start_ns": start,
                    "end_ns": end}) + "\n")


def _wrap(tracer: Tracer, index: int, fn: Callable) -> Callable:
    depth, stack = tracer.depth, tracer.stack

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if depth[index] or not stack:
            return fn(*args, **kwargs)
        tracer.enter(index)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return traced


def _with_subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _with_subclasses(sub)


def entry_points() -> List[Tuple[int, type, str]]:
    """Every (layer index, class, method name) :func:`installed` wraps.

    Layer indices count from 1; index 0 is the root span.
    """
    found: Dict[Tuple[type, str], int] = {}
    for index, (_, targets) in enumerate(LAYERS, 1):
        for module, class_name, methods in targets:
            cls = getattr(importlib.import_module(module), class_name)
            for klass in _with_subclasses(cls):
                for method in methods:
                    if method in vars(klass):
                        found.setdefault((klass, method), index)
    return [(index, klass, method)
            for (klass, method), index in found.items()]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer entry point for the ``with`` body, then restore."""
    originals: List[Tuple[type, str, object]] = []
    try:
        for index, klass, method in entry_points():
            original = vars(klass)[method]
            originals.append((klass, method, original))
            setattr(klass, method, _wrap(tracer, index, original))
        yield tracer
    finally:
        for klass, method, original in reversed(originals):
            setattr(klass, method, original)

