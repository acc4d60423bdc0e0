"""Ideal intra-line / inter-line compression limit models (Figure 2).

Reproduces the paper's motivating limit study (Figure 2 footnote): a
set-based 128KB cache whose 512-byte sets hold as many compressed lines as
fit, LRU-evicted.  Lines are split into 4-byte words and deduplicated —
within the line for the *intra* oracle, across every resident line for the
*inter* oracle.  Surviving words are significance-compressed (leading zero
bytes dropped).  Neither model pays any metadata cost (no pointers, tags,
or fragmentation), which is what makes them oracles.

The inter model charges a word's bytes only when no other resident copy
exists at fill time; evictions decrement a global refcount pool.  Charged
line sizes are not retroactively adjusted when a sharer leaves — the
optimistic reading appropriate for a limit study.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from repro.common.stats import StatGroup
from repro.common.words import LINE_SIZE, check_line, words32

SET_BYTES = 512


def significance_bytes(word: int) -> int:
    """Size of a 32-bit word after dropping leading zero bytes (0-4)."""
    if word == 0:
        return 0
    return (word.bit_length() + 7) // 8


@dataclass
class _OracleLine:
    line_address: int
    words: List[int]
    charged_bytes: int


class _OracleSet:
    """One 512-byte set holding variable-size compressed lines in LRU order."""

    def __init__(self) -> None:
        self.lines: "OrderedDict[int, _OracleLine]" = OrderedDict()

    @property
    def used_bytes(self) -> int:
        return sum(line.charged_bytes for line in self.lines.values())

    def touch(self, line_address: int) -> None:
        self.lines.move_to_end(line_address)

    def pop_lru(self) -> _OracleLine:
        _, line = self.lines.popitem(last=False)
        return line


class OracleCache:
    """Shared machinery for both oracle variants.

    ``inter=True`` dedups words against the whole cache; ``inter=False``
    only within each line.
    """

    def __init__(self, size_bytes: int = 128 * 1024, inter: bool = False,
                 set_bytes: int = SET_BYTES, compress: bool = True) -> None:
        if size_bytes % set_bytes:
            raise ValueError("cache size must divide into sets")
        self.inter = inter
        self.compress = compress
        self.set_bytes = set_bytes
        self.n_sets = size_bytes // set_bytes
        self.size_bytes = size_bytes
        self._sets = [_OracleSet() for _ in range(self.n_sets)]
        self._pool: Counter = Counter()
        self.stats = StatGroup("oracle-inter" if inter else "oracle-intra")

    def _set_for(self, address: int) -> _OracleSet:
        return self._sets[(address // LINE_SIZE) % self.n_sets]

    def _line_cost(self, words: List[int]) -> int:
        """Charged bytes for a new line under the dedup discipline."""
        if not self.compress:
            return LINE_SIZE
        cost = 0
        seen: set = set()
        for word in words:
            if word in seen:
                continue
            seen.add(word)
            if self.inter and self._pool.get(word, 0) > 0:
                continue
            cost += significance_bytes(word)
        return cost

    def access(self, address: int, data: Optional[bytes],
               is_write: bool) -> bool:
        """Look up a line; fill on miss.  Returns True on hit."""
        cache_set = self._set_for(address)
        line_address = address // LINE_SIZE
        if line_address in cache_set.lines:
            cache_set.touch(line_address)
            self.stats.add("hits")
            if is_write and data is not None:
                self._replace_data(cache_set, line_address, data)
            return True
        self.stats.add("misses")
        if data is not None:
            self._fill(cache_set, line_address, data)
        return False

    def _replace_data(self, cache_set: _OracleSet, line_address: int,
                      data: bytes) -> None:
        """In the oracle, a write simply re-costs the line's new contents."""
        old = cache_set.lines.pop(line_address)
        self._release(old)
        self._fill(cache_set, line_address, data)

    def _fill(self, cache_set: _OracleSet, line_address: int,
              data: bytes) -> None:
        words = words32(check_line(data))
        cost = self._line_cost(words)
        while cache_set.used_bytes + cost > self.set_bytes and cache_set.lines:
            self._release(cache_set.pop_lru())
            self.stats.add("evictions")
        if cache_set.used_bytes + cost > self.set_bytes:
            # A single incompressible line larger than the set cannot occur
            # (64B line <= 512B set), so this is unreachable; guard anyway.
            return
        cache_set.lines[line_address] = _OracleLine(line_address, words, cost)
        if self.inter:
            self._pool.update(set(words))
        self.stats.add("fills")

    def _release(self, line: _OracleLine) -> None:
        if self.inter:
            for word in set(line.words):
                self._pool[word] -= 1
                if self._pool[word] <= 0:
                    del self._pool[word]

    @property
    def resident_lines(self) -> int:
        return sum(len(s.lines) for s in self._sets)

    def compression_ratio(self) -> float:
        """Valid resident lines over uncompressed capacity (paper §4)."""
        capacity_lines = self.size_bytes // LINE_SIZE
        return self.resident_lines / capacity_lines if capacity_lines else 0.0
