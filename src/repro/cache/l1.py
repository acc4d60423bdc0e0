"""Private L1 data cache (Table 5: 32KB, 4-way, 64B lines, single cycle).

Write-back, write-allocate, true LRU.  The L1 holds actual line data so
that dirty evictions deliver the bytes the LLC will compress — the data
path matters here because MORC's write-back behaviour (paper §3.1 and
Figure 12) depends on real values reaching the log appends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.config import CacheGeometry
from repro.common.stats import StatGroup
from repro.common.words import check_line
from repro.cache.replacement import LruPolicy

Victim = Tuple[int, bytes, bool]
"""An evicted L1 line: (address, data, dirty)."""


@dataclass
class _L1Line:
    data: bytes
    dirty: bool


class _L1Set:
    __slots__ = ("lines", "lru")

    def __init__(self) -> None:
        self.lines: Dict[int, _L1Line] = {}
        self.lru = LruPolicy()


class L1Cache:
    """A private first-level cache."""

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        # Kept off ``geometry`` so every access indexes without
        # re-deriving the set count through its properties.
        self._line_size = geometry.line_size
        self._n_sets = geometry.n_sets
        self._sets = [_L1Set() for _ in range(self._n_sets)]
        self.stats = StatGroup("L1")

    def _set_for(self, address: int) -> _L1Set:
        return self._sets[(address // self._line_size) % self._n_sets]

    def lookup(self, address: int, is_write: bool,
               data: Optional[bytes] = None) -> bool:
        """Probe the L1.  On a write hit the line is updated in place.

        Returns True on hit.  On miss the caller must fetch the line and
        call :meth:`fill`.
        """
        cache_set = self._set_for(address)
        line_address = address // self._line_size
        line = cache_set.lines.get(line_address)
        if line is None:
            self.stats.add("misses")
            self.stats.add("write_misses" if is_write else "read_misses")
            return False
        cache_set.lru.touch(line_address)
        self.stats.add("hits")
        if is_write:
            if data is not None:
                line.data = check_line(data)
            line.dirty = True
            self.stats.add("write_hits")
        else:
            self.stats.add("read_hits")
        return True

    def fill(self, address: int, data: bytes,
             dirty: bool = False) -> Optional[Victim]:
        """Insert a fetched line; returns the evicted victim, if any."""
        cache_set = self._set_for(address)
        line_address = address // self._line_size
        victim: Optional[Victim] = None
        if (line_address not in cache_set.lines
                and len(cache_set.lines) >= self.geometry.ways):
            victim_key = cache_set.lru.victim()
            victim_line = cache_set.lines.pop(victim_key)
            cache_set.lru.remove(victim_key)
            self.stats.add("evictions")
            if victim_line.dirty:
                self.stats.add("dirty_evictions")
            victim = (victim_key * self._line_size,
                      victim_line.data, victim_line.dirty)
        cache_set.lines[line_address] = _L1Line(check_line(data), dirty)
        cache_set.lru.insert(line_address)
        return victim

    def contains(self, address: int) -> bool:
        """True if the line is resident (test/debug hook)."""
        line_address = address // self._line_size
        return line_address in self._set_for(address).lines

    def line_data(self, address: int) -> Optional[bytes]:
        """Current contents of a resident line (test/debug hook)."""
        line_address = address // self._line_size
        line = self._set_for(address).lines.get(line_address)
        return None if line is None else line.data
