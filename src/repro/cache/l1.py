"""Private L1 data cache (Table 5: 32KB, 4-way, 64B lines, single cycle).

Write-back, write-allocate, true LRU.  The L1 holds actual line data so
that dirty evictions deliver the bytes the LLC will compress — the data
path matters here because MORC's write-back behaviour (paper §3.1 and
Figure 12) depends on real values reaching the log appends.

Every access of every cell passes through here, so a set is one
``OrderedDict`` in LRU order (least recent first) mapping a line address
to ``[data, dirty]``, and the counters are plain ints that
:attr:`L1Cache.stats` presents as a :class:`StatGroup`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.common.config import CacheGeometry
from repro.common.stats import StatGroup
from repro.common.words import LINE_SIZE, check_line

Victim = Tuple[int, bytes, bool]
"""An evicted L1 line: (address, data, dirty)."""

#: the L1's counters, in the order its stats list them
_COUNTERS = ("read_hits", "write_hits", "read_misses", "write_misses",
             "evictions", "dirty_evictions")


class L1Cache:
    """A private first-level cache."""

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        # Kept off ``geometry`` so every access indexes without
        # re-deriving the set count through its properties.
        self._line_size = geometry.line_size
        self._n_sets = geometry.n_sets
        self._ways = geometry.ways
        self._sets = [OrderedDict() for _ in range(self._n_sets)]
        self.read_hits = self.write_hits = 0
        self.read_misses = self.write_misses = 0
        self.evictions = self.dirty_evictions = 0
        self.stats = _L1Stats(self)

    def lookup(self, address: int, is_write: bool,
               data: Optional[bytes] = None) -> bool:
        """Probe the L1.  On a write hit the line is updated in place.

        Returns True on hit.  On miss the caller must fetch the line and
        call :meth:`fill`.
        """
        line_address = address // self._line_size
        cache_set = self._sets[line_address % self._n_sets]
        line = cache_set.get(line_address)
        if line is None:
            if is_write:
                self.write_misses += 1
            else:
                self.read_misses += 1
            return False
        cache_set.move_to_end(line_address)
        if is_write:
            if data is not None:
                line[0] = (data if type(data) is bytes
                           and len(data) == LINE_SIZE else check_line(data))
            line[1] = True
            self.write_hits += 1
        else:
            self.read_hits += 1
        return True

    def fill(self, address: int, data: bytes,
             dirty: bool = False) -> Optional[Victim]:
        """Insert a fetched line; returns the evicted victim, if any."""
        # A 64-byte ``bytes`` is what check_line would return; anything
        # else goes through it, to be rejected or converted.
        if not (type(data) is bytes and len(data) == LINE_SIZE):
            data = check_line(data)
        line_address = address // self._line_size
        cache_set = self._sets[line_address % self._n_sets]
        victim: Optional[Victim] = None
        # A refilled line leaves first, so it never evicts another.
        cache_set.pop(line_address, None)
        if len(cache_set) >= self._ways:
            victim_key, (victim_data, victim_dirty) = cache_set.popitem(
                last=False)
            self.evictions += 1
            if victim_dirty:
                self.dirty_evictions += 1
            victim = (victim_key * self._line_size, victim_data,
                      victim_dirty)
        cache_set[line_address] = [data, dirty]
        return victim

    def contains(self, address: int) -> bool:
        """True if the line is resident (test/debug hook)."""
        line_address = address // self._line_size
        return line_address in self._sets[line_address % self._n_sets]

    def line_data(self, address: int) -> Optional[bytes]:
        """Current contents of a resident line (test/debug hook)."""
        line_address = address // self._line_size
        line = self._sets[line_address % self._n_sets].get(line_address)
        return None if line is None else line[0]


class _L1Stats(StatGroup):
    """An L1's int counters, read as a :class:`StatGroup`.

    As in a plain group, a counter appears once it has been counted,
    values are floats, and :meth:`reset` zeroes them.  The L1 counts;
    the view does not take :meth:`add` or :meth:`set`.
    """

    def __init__(self, l1: L1Cache) -> None:
        self.name = "L1"
        self._l1 = l1

    @property
    def _counters(self) -> Dict[str, float]:
        l1 = self._l1
        counts = {"hits": l1.read_hits + l1.write_hits,
                  "misses": l1.read_misses + l1.write_misses}
        for key in _COUNTERS:
            counts[key] = getattr(l1, key)
        return {key: float(value) for key, value in counts.items() if value}

    def add(self, key: str, amount: float = 1.0) -> None:
        raise TypeError("the L1 keeps its own counts")

    def set(self, key: str, value: float) -> None:
        raise TypeError("the L1 keeps its own counts")

    def reset(self) -> None:
        for key in _COUNTERS:
            setattr(self._l1, key, 0)
