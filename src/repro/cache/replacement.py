"""Replacement policies for set-associative caches.

Each policy manages victim selection within one cache (all sets). The
interface is deliberately tiny — touch on every access, choose a victim
among the valid ways of a set — so policies stay interchangeable.

Recency state is stored two ways. A standalone policy (constructed
directly, never attached to a cache) keeps a ``(set, way) -> stamp``
dict. A policy bound to a cache via :meth:`ReplacementPolicy.bind`
switches to a flat ``array('q')`` of stamps indexed ``set * assoc +
way`` — the array-backed set state the bulk hierarchy walk
(:meth:`~repro.cache.hierarchy.CacheHierarchy.access_many`) updates in
one pass. Both representations produce identical victims: a stamp of
``0`` means "never touched", and ties break on the lowest way index
(matching ``min`` over ways in ascending order).
"""

from __future__ import annotations

import abc
import random
from array import array
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError


class ReplacementPolicy(abc.ABC):
    """Victim selection strategy for one cache."""

    name = "abstract"

    #: Flat per-(set, way) stamp array once bound to a cache geometry;
    #: ``None`` while unbound (dict-backed standalone use).
    stamps: Optional[array] = None

    def bind(self, num_sets: int, associativity: int) -> None:
        """Attach the policy to a cache geometry, switching recency
        state to a flat stamp array (default: no state, nothing to do)."""

    @abc.abstractmethod
    def touch(self, set_index: int, way: int) -> None:
        """Record a hit or fill of ``way`` in ``set_index``."""

    def touch_many(self, set_index: int, way: int, count: int) -> None:
        """Record ``count`` back-to-back touches of one way.

        With nothing in between, repeated touches of the same way are
        order-equivalent to one (the relative recency of every other
        way is unchanged), but LRU's clock must still advance so stamp
        values match ``count`` scalar touches exactly.
        """
        for _ in range(count):
            self.touch(set_index, way)

    @abc.abstractmethod
    def victim(self, set_index: int, ways: List[int]) -> int:
        """Choose which of the candidate ``ways`` to evict."""

    def forget(self, set_index: int, way: int) -> None:
        """A line was invalidated; drop its bookkeeping (optional)."""


class _StampPolicy(ReplacementPolicy):
    """Shared machinery for stamp-ordered policies (LRU, FIFO)."""

    def __init__(self) -> None:
        self._clock = 0
        self._assoc = 0
        self.stamps: Optional[array] = None
        self._dict: Dict[Tuple[int, int], int] = {}

    def bind(self, num_sets: int, associativity: int) -> None:
        if self._dict:
            raise ConfigError(f"{self.name}: cannot bind a policy that "
                              "already carries standalone state")
        self._assoc = associativity
        self.stamps = array("q", bytes(8 * num_sets * associativity))

    def _stamp(self, set_index: int, way: int) -> int:
        if self.stamps is not None:
            return self.stamps[set_index * self._assoc + way]
        return self._dict.get((set_index, way), 0)

    def victim(self, set_index: int, ways: List[int]) -> int:
        if self.stamps is not None:
            base = set_index * self._assoc
            stamps = self.stamps
            best = ways[0]
            best_stamp = stamps[base + best]
            for way in ways[1:]:
                stamp = stamps[base + way]
                if stamp < best_stamp:
                    best, best_stamp = way, stamp
            return best
        return min(ways, key=lambda w: self._dict.get((set_index, w), 0))

    def forget(self, set_index: int, way: int) -> None:
        if self.stamps is not None:
            self.stamps[set_index * self._assoc + way] = 0
        else:
            self._dict.pop((set_index, way), None)


class LRUPolicy(_StampPolicy):
    """Least-recently-used: victim is the way with the oldest touch."""

    name = "lru"

    def touch(self, set_index: int, way: int) -> None:
        self._clock += 1
        if self.stamps is not None:
            self.stamps[set_index * self._assoc + way] = self._clock
        else:
            self._dict[(set_index, way)] = self._clock

    def touch_many(self, set_index: int, way: int, count: int) -> None:
        if count <= 0:
            return
        self._clock += count
        if self.stamps is not None:
            self.stamps[set_index * self._assoc + way] = self._clock
        else:
            self._dict[(set_index, way)] = self._clock


class FIFOPolicy(_StampPolicy):
    """First-in-first-out: victim is the way filled earliest."""

    name = "fifo"

    def touch(self, set_index: int, way: int) -> None:
        # Only the fill establishes order; hits do not refresh it.
        if self._stamp(set_index, way):
            return
        self._clock += 1
        if self.stamps is not None:
            self.stamps[set_index * self._assoc + way] = self._clock
        else:
            self._dict[(set_index, way)] = self._clock

    def touch_many(self, set_index: int, way: int, count: int) -> None:
        if count > 0:
            self.touch(set_index, way)


class RandomPolicy(ReplacementPolicy):
    """Uniformly random victim (seeded for reproducibility)."""

    name = "random"

    def __init__(self, seed: int = 0xC0FFEE) -> None:
        self._rng = random.Random(seed)

    def touch(self, set_index: int, way: int) -> None:
        pass

    def touch_many(self, set_index: int, way: int, count: int) -> None:
        pass

    def victim(self, set_index: int, ways: List[int]) -> int:
        return self._rng.choice(ways)


def make_replacement(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by config name."""
    if name == "lru":
        return LRUPolicy()
    if name == "fifo":
        return FIFOPolicy()
    if name == "random":
        return RandomPolicy()
    raise ConfigError(f"unknown replacement policy {name!r}")
