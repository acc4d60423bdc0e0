"""Replacement policies.

The paper evaluates the set-based schemes with *perfect LRU* (§4) and MORC's
log victim selection with FIFO (§3.2.1).  Policies here operate on opaque
keys so both caches and the LMT can reuse them.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Hashable, Iterable, Optional


class ReplacementPolicy(abc.ABC):
    """Tracks a set of resident keys and nominates victims."""

    @abc.abstractmethod
    def insert(self, key: Hashable) -> None:
        """Record that ``key`` became resident."""

    @abc.abstractmethod
    def touch(self, key: Hashable) -> None:
        """Record a use of ``key``."""

    @abc.abstractmethod
    def remove(self, key: Hashable) -> None:
        """Record that ``key`` left the set."""

    @abc.abstractmethod
    def victim(self) -> Hashable:
        """Nominate the key to evict next (without removing it)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        ...

    @abc.abstractmethod
    def __contains__(self, key: Hashable) -> bool:
        ...


class LruPolicy(ReplacementPolicy):
    """Least-recently-used via an ordered dict (most recent at the end)."""

    def __init__(self, keys: Iterable[Hashable] = ()) -> None:
        self._order: "OrderedDict[Hashable, None]" = OrderedDict()
        for key in keys:
            self.insert(key)

    def insert(self, key: Hashable) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def touch(self, key: Hashable) -> None:
        if key not in self._order:
            raise LookupError(
                f"LruPolicy cannot touch non-resident key {key!r}")
        self._order.move_to_end(key)

    def remove(self, key: Hashable) -> None:
        self._order.pop(key, None)

    def victim(self) -> Hashable:
        if not self._order:
            raise LookupError("no candidate to evict")
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._order


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out; touches do not reorder."""

    def __init__(self, keys: Iterable[Hashable] = ()) -> None:
        self._order: "OrderedDict[Hashable, None]" = OrderedDict()
        for key in keys:
            self.insert(key)

    def insert(self, key: Hashable) -> None:
        if key not in self._order:
            self._order[key] = None

    def touch(self, key: Hashable) -> None:
        if key not in self._order:
            raise LookupError(
                f"FifoPolicy cannot touch non-resident key {key!r}")
        # FIFO ignores uses of resident keys

    def remove(self, key: Hashable) -> None:
        self._order.pop(key, None)

    def victim(self) -> Hashable:
        if not self._order:
            raise LookupError("no candidate to evict")
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._order


class RoundRobinCounter:
    """Tiny helper for way-pick rotation (used by the LMT)."""

    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise ValueError("limit must be positive")
        self._limit = limit
        self._next = 0

    def next(self) -> int:
        value = self._next
        self._next = (self._next + 1) % self._limit
        return value

    @property
    def limit(self) -> Optional[int]:
        return self._limit
