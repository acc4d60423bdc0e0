"""``repro.obs`` — observability: event tracing and profiling.

Both are off by default (``REPRO_OBS=0``) so the simulator pays nothing
and stays bit-identical when unobserved:

- :mod:`repro.obs.trace` — per-category JSONL event tracing (``llc``,
  ``compression``, ``mem``, ``run``, ``engine``), summarised by
  ``python -m repro obs <trace>``;
- :mod:`repro.obs.profiling` — worker utilization / queue-wait / peak
  RSS for the parallel experiment engine.

:mod:`repro.obs.reservoir` is the always-on exception: its bounded
:class:`~repro.obs.reservoir.MissSeries` backs ``RunMetrics`` miss
streams regardless of ``REPRO_OBS`` because it is a memory-safety fix,
not an instrument.

Environment knobs are documented in :mod:`repro.obs.config`; tests (and
long-lived processes) can flip everything at runtime::

    import repro.obs as obs
    obs.configure(enabled=True, trace_path="/tmp/t.jsonl",
                  categories={"llc", "mem"})
    ...
    obs.reset()   # back to the environment's settings
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs import config as _config
from repro.obs import trace as _trace
from repro.obs.config import ALL_CATEGORIES, ObsConfig
from repro.obs.reservoir import MissSeries, Reservoir

__all__ = [
    "ALL_CATEGORIES", "MissSeries", "ObsConfig", "Reservoir", "configure",
    "obs_enabled", "reset",
]


def obs_enabled() -> bool:
    """True when the observability layer is live."""
    return _config.current().enabled


def configure(enabled: Optional[bool] = None,
              trace_path: Optional[str] = None,
              categories: Optional[Iterable[str]] = None,
              mem_sample_interval: Optional[int] = None) -> ObsConfig:
    """Override observability settings at runtime (None = keep current).

    Rebinds the tracer's category channels.
    """
    base = _config.current()
    updated = ObsConfig(
        enabled=base.enabled if enabled is None else bool(enabled),
        trace_path=(base.trace_path if trace_path is None
                    else str(trace_path)),
        categories=(base.categories if categories is None
                    else frozenset(categories)),
        mem_sample_interval=(base.mem_sample_interval
                             if mem_sample_interval is None
                             else int(mem_sample_interval)))
    _config.set_current(updated)
    _trace.refresh()
    return updated


def reset() -> ObsConfig:
    """Reload settings from the environment (undo :func:`configure`)."""
    _config.set_current(_config.load_from_env())
    _trace.refresh()
    _trace.clear_context()
    return _config.current()
