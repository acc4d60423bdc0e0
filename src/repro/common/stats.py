"""Lightweight named statistic counters.

Every simulated component (caches, compressors, memory controller) exposes a
:class:`StatGroup` so experiments can collect event counts without the
components knowing about the experiment harness.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator


class StatGroup:
    """A named collection of additive counters.

    Counters spring into existence at zero on first use, so component code
    can ``stats.add("hits")`` without registration boilerplate.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, float] = defaultdict(float)

    def add(self, key: str, amount: float = 1.0) -> None:
        """Increment a counter."""
        self._counters[key] += amount

    def set(self, key: str, value: float) -> None:
        """Overwrite a counter (e.g. occupancy snapshots)."""
        self._counters[key] = value

    def get(self, key: str) -> float:
        """Read a counter (0.0 if never touched)."""
        return self._counters.get(key, 0.0)

    def __getitem__(self, key: str) -> float:
        return self.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._counters

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._counters))

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of all counters."""
        return dict(self._counters)

    def reset(self) -> None:
        """Zero every counter."""
        self._counters.clear()

    def ratio(self, numerator: str, denominator: str) -> float:
        """Safe counter ratio; 0.0 when the denominator is zero."""
        denom = self.get(denominator)
        if denom == 0:
            return 0.0
        return self.get(numerator) / denom

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counters.items()))
        return f"StatGroup({self.name}: {inner})"
