"""Per-process page tables.

A flat virtual address space mapped page-by-page onto physical page
numbers. The entry flags capture the Linux anonymous-memory states the
paper describes (section 2.3): a fresh read maps the virtual page to
the shared Zero Page read-only; the first write takes a copy-on-write
fault that installs a private writable page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from ..errors import AddressError, PageFaultError


@dataclass
class PageTableEntry:
    """One virtual-to-physical mapping."""

    ppn: int
    writable: bool = True
    zero_page: bool = False      # maps the shared Zero Page (COW source)
    huge: bool = False           # part of a huge-page unit


class PageTable:
    """vpn -> entry mapping for one process (or one guest kernel)."""

    def __init__(self, page_size: int) -> None:
        self.page_size = page_size
        self._entries: Dict[int, PageTableEntry] = {}

    def vpn_of(self, vaddr: int) -> int:
        if vaddr < 0:
            raise AddressError(f"negative virtual address {vaddr:#x}")
        return vaddr // self.page_size

    def map(self, vpn: int, ppn: int, *, writable: bool = True,
            zero_page: bool = False) -> None:
        self._entries[vpn] = PageTableEntry(ppn=ppn, writable=writable,
                                            zero_page=zero_page)

    def unmap(self, vpn: int) -> PageTableEntry:
        entry = self._entries.pop(vpn, None)
        if entry is None:
            raise PageFaultError(f"vpn {vpn} was not mapped")
        return entry

    def lookup(self, vpn: int) -> Optional[PageTableEntry]:
        return self._entries.get(vpn)

    @property
    def entries(self) -> Dict[int, PageTableEntry]:
        """The live vpn -> entry mapping, for read-only probes.

        Callers that hold on to it see every later map, unmap and
        :meth:`clear`, so it never needs invalidating.
        """
        return self._entries

    def clear(self) -> None:
        """Drop every mapping in place (process teardown)."""
        self._entries.clear()

    def translate(self, vaddr: int, *, write: bool) -> int:
        """Resolve a virtual address, raising on any fault condition."""
        entry = self._entries.get(self.vpn_of(vaddr))
        if entry is None:
            raise PageFaultError(f"unmapped address {vaddr:#x}")
        if write and not entry.writable:
            raise PageFaultError(f"write to read-only address {vaddr:#x}")
        return entry.ppn * self.page_size + (vaddr % self.page_size)

    def mapped_vpns(self) -> Iterator[Tuple[int, PageTableEntry]]:
        return iter(sorted(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries
