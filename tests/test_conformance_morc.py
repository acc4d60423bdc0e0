"""Differential conformance: MorcCache vs the literal O(n^2) reference.

The reference recomputes every log occupancy by summation and finds
every victim by linear scan, so agreement here pins the production
cache's incremental bookkeeping (``data_bits_used``, ``valid_count``,
FIFO/closed-log state, LMT pointers) to the paper's definitions, for
every data algorithm (``run_check``'s ``morc-lbe/cpack/raw/lz``).
"""

import pytest

from repro.common.config import MorcConfig
from repro.conformance import run_check
from repro.conformance.driver import (
    MORC_COUNTERS,
    _Recorder,
    _replay_cache,
    ComponentResult,
)
from repro.conformance.reference import RefMorcCache
from repro.conformance.streams import collect_stream
from repro.morc.cache import MorcCache

pytestmark = pytest.mark.conformance

SEEDS = (0, 1, 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_morc_conforms(seed):
    report = run_check(seeds=[seed], components=["morc"])
    assert report.passed, report.render()


def _replay_variant(config, seed, n_ops=220, algorithm="lbe"):
    prod = MorcCache(8 * 1024, config, algorithm=algorithm)
    gold = RefMorcCache(8 * 1024, config, algorithm=algorithm)
    result = ComponentResult(component="morc-variant")
    recorder = _Recorder(result, "narrow-int", seed)
    records = collect_stream("narrow-int", n_ops, seed=seed,
                             working_set_lines=320)
    _replay_cache(recorder, prod, gold, records, MORC_COUNTERS)
    assert result.passed, "\n".join(d.render() for d in result.divergences)
    return prod, gold


@pytest.mark.parametrize("seed", SEEDS)
def test_merged_tags_variant_conforms(seed):
    _replay_variant(MorcConfig(merged_tags=True), seed)


def test_uncompressed_morc_conforms():
    prod, gold = _replay_variant(MorcConfig(), 0, algorithm="raw")
    # Raw entries consume full lines, so a 512B log holds 8 entries max.
    for log in gold.logs:
        assert len(log.entries) <= 8


def test_invalid_fraction_matches_brute_force():
    config = MorcConfig()
    prod, gold = _replay_variant(config, 2, n_ops=300)
    assert prod.invalid_fraction() == gold.invalid_fraction()
    assert prod.compression_ratio() == gold.compression_ratio()
