"""Canonical microbenchmarks for calibration and unit-level studies.

Unlike the SPEC surrogates (which blend many behaviours), each micro
isolates one: a pure streaming scan, a pointer chase, an all-zero
initialisation pass, incompressible random traffic, a tiny hot loop,
and a producer-consumer update pattern.  Useful for sanity-checking a
cache model ("a stream must miss every line", "zeros must compress to
nothing") and for calibrating codecs.
"""

from __future__ import annotations

from repro.workloads.datamodel import AccessProfile, DataProfile
from repro.workloads.trace import SyntheticTrace

MICRO_SEED = 7_000


def _profile_pair(name: str):
    if name == "stream":
        # Sequential read of a huge array of unique FP-ish values.
        return (DataProfile(p_zero_chunk=0.02, p_pool256=0.10,
                            p_pool128=0.05, p_pool64=0.05,
                            p_zero_word=0.05, p_narrow8=0.02,
                            p_narrow16=0.03, p_pool32=0.05,
                            n_families=2),
                AccessProfile(working_set_lines=100_000, p_sequential=1.0,
                              mean_run_lines=1_000, p_hot=0.0,
                              write_fraction=0.0, mean_gap=4.0))
    if name == "pointer_chase":
        # Random hops over a large heap of pointer-dense nodes.
        return (DataProfile(p_zero_chunk=0.10, p_pool256=0.05,
                            p_pool128=0.20, p_pool64=0.40,
                            p_zero_word=0.15, p_narrow8=0.05,
                            p_narrow16=0.10, p_pool32=0.20,
                            pool64_size=16, n_families=2),
                AccessProfile(working_set_lines=50_000, p_sequential=0.0,
                              mean_run_lines=1, p_hot=0.05,
                              write_fraction=0.05, mean_gap=3.0))
    if name == "memset":
        # Writing zeros over a large region.
        return (DataProfile(p_zero_chunk=1.0, p_pool256=0.0),
                AccessProfile(working_set_lines=40_000, p_sequential=1.0,
                              mean_run_lines=2_000, p_hot=0.0,
                              write_fraction=1.0, mean_gap=2.0))
    if name == "random_incompressible":
        return (DataProfile(p_zero_chunk=0.0, p_pool256=0.0,
                            p_pool128=0.0, p_pool64=0.0, p_zero_word=0.0,
                            p_narrow8=0.0, p_narrow16=0.0, p_pool32=0.0),
                AccessProfile(working_set_lines=30_000, p_sequential=0.3,
                              mean_run_lines=4, p_hot=0.1,
                              write_fraction=0.3, mean_gap=5.0))
    if name == "hot_loop":
        # A loop fitting comfortably in the L1.
        return (DataProfile(),
                AccessProfile(working_set_lines=128, p_sequential=0.5,
                              mean_run_lines=16, p_hot=0.5,
                              hot_set_lines=128, write_fraction=0.2,
                              mean_gap=20.0))
    if name == "producer_consumer":
        # A buffer written then re-read, heavy write-back churn.
        return (DataProfile(p_zero_chunk=0.2, p_pool256=0.25,
                            n_families=2),
                AccessProfile(working_set_lines=4_000, p_sequential=0.7,
                              mean_run_lines=32, p_hot=0.2,
                              write_fraction=0.5, mean_gap=4.0))
    raise KeyError(f"unknown microbenchmark {name!r}")


MICROBENCHMARKS = ("stream", "pointer_chase", "memset",
                   "random_incompressible", "hot_loop",
                   "producer_consumer")


def make_micro_trace(name: str, n_instructions: int = 60_000,
                     seed_offset: int = 0) -> SyntheticTrace:
    """Build one of the canonical microbenchmarks."""
    data, access = _profile_pair(name)
    return SyntheticTrace(name=name, data_profile=data,
                          access_profile=access,
                          n_instructions=n_instructions,
                          seed=MICRO_SEED + seed_offset)
