"""Shared experiment machinery.

Workload scale: the paper simulates 130M-1B instruction regions; a pure-
Python simulator cannot, so each experiment has a default instruction
budget sized for minutes-level runtime and every ``run()`` accepts an
override.  ``REPRO_SCALE`` multiplies all defaults (e.g. ``REPRO_SCALE=5``
for a higher-fidelity overnight run).

``DEFAULT_BENCHMARKS`` is a representative subset covering all data
archetypes (used by the benches); ``FULL_BENCHMARKS`` is every Figure 6
workload including ``_N`` input variants.
"""

from __future__ import annotations

from typing import List, Sequence

from repro import settings
from repro.workloads.spec import ALL_SINGLE_PROGRAMS

FULL_BENCHMARKS: List[str] = list(ALL_SINGLE_PROGRAMS)

DEFAULT_BENCHMARKS: List[str] = [
    "astar", "bzip2", "gcc", "gobmk", "h264ref", "hmmer", "mcf",
    "omnetpp", "perlbench", "sjeng", "xalancbmk",
    "bwaves", "cactusADM", "dealII", "gamess", "lbm", "leslie3d",
    "milc", "povray", "soplex", "sphinx3", "zeusmp",
]

DEFAULT_INSTRUCTIONS = 120_000
# 16 threads share a 2MB LLC (32K lines); each thread needs enough
# accesses for the aggregate fill count (including the warm-up region)
# to pressure that capacity.
DEFAULT_MULTI_INSTRUCTIONS = 40_000


def scale_instructions(base: int) -> int:
    """Apply the ``REPRO_SCALE`` multiplier to a budget.

    :mod:`repro.settings` rejects a non-positive scale rather than
    clamping: ``REPRO_SCALE=0`` used to shrink every budget to 1,000
    instructions, which looks like a fast run but measures nothing.
    """
    return max(1_000, int(base * settings.current().scale))


def instructions_for(benchmark: str, base: int) -> int:
    """Per-benchmark instruction budget normalised by memory intensity.

    The paper runs a fixed 130M instructions, enough to fill the LLC many
    times over for every benchmark.  At simulation budgets five orders of
    magnitude smaller, a compute-bound benchmark (mean gap 50) would issue
    too few memory accesses to even warm the cache, so budgets scale with
    the benchmark's gap to hold the *access* count roughly constant.
    """
    from repro.workloads.spec import benchmark_profile
    spec = benchmark_profile(benchmark)
    factor = max(1.0, (1.0 + spec.access.mean_gap) / 9.0)
    return max(10_000, int(base * factor))


def geomean(values: Sequence[float]) -> float:
    """Geometric mean, guarding zero/negative values."""
    cleaned = [max(v, 1e-12) for v in values]
    if not cleaned:
        return 0.0
    product = 1.0
    for value in cleaned:
        product *= value
    return product ** (1.0 / len(cleaned))


def amean(values: Sequence[float]) -> float:
    """Arithmetic mean of a possibly-empty sequence."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0
