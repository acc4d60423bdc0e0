"""MORC: the paper's log-based, inter-line compressed LLC.

- :mod:`repro.morc.log` — append-only fixed-size logs holding compressed
  data + compressed tags
- :mod:`repro.morc.lmt` — the Line-Map Table indirection layer
- :mod:`repro.morc.codecs` — the data and tag codecs behind one interface
- :mod:`repro.morc.cache` — the full cache: fills, multi-log
  (content-aware) placement, reads, write-backs, LMT-conflict and
  whole-log evictions, MORCMerged
"""

from repro.morc.anatomy import MorcAnatomy, analyze, analyze_benchmark
from repro.morc.cache import MorcCache
from repro.morc.lmt import LineMapTable, LmtEntry, LmtState
from repro.morc.log import Log, LogEntry

__all__ = [
    "LineMapTable",
    "LmtEntry",
    "LmtState",
    "Log",
    "LogEntry",
    "MorcAnatomy",
    "MorcCache",
    "analyze",
    "analyze_benchmark",
]
