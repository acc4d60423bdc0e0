"""Performance subsystem: benchmark corpora and timing.

The simulator's throughput is part of the reproduction's fidelity story
(the paper sweeps ~26 benchmarks x 4 schemes x several configs); this
package holds what measures it:

- :mod:`repro.perf.corpus` — deterministic cache-line corpora spanning
  the data archetypes (zero-, duplicate-, pointer-, text-, random-heavy)
  used by the golden tests and ``benchmarks/bench_perf.py``.
- :mod:`repro.perf.timing` — experiment/cell timing capture feeding the
  ``BENCH_perf.json`` trajectory.
"""

from repro.perf.timing import (
    ExperimentTiming,
    clear_timings,
    timed_experiment,
    timings,
)

__all__ = [
    "ExperimentTiming",
    "clear_timings",
    "timed_experiment",
    "timings",
]
