"""Differential conformance: production set caches vs the golden
reference models (``repro.conformance``).

These tests replay the same deterministic streams ``repro check`` uses
and fail with the rendered divergence list, so a regression names the
component, mix, seed and step that disagreed.
"""

import pytest

from repro.cache.set_assoc import SetAssociativeCache, UncompressedCache
from repro.common.config import CacheGeometry
from repro.compression.cpack import CPackCompressor
from repro.conformance import run_check
from repro.conformance.reference import RefSetCache, cpack_segments
from repro.conformance.streams import collect_stream

pytestmark = pytest.mark.conformance

SEEDS = (0, 1, 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_set_caches_conform(seed):
    report = run_check(seeds=[seed], components=["set-caches"])
    assert report.passed, report.render()


def test_reference_set_cache_is_fully_tracked():
    """The reference recomputes occupancy by summation — spot-check that
    a hand-driven sequence lands where the definitions say."""
    gold = RefSetCache(n_sets=2, ways=2, tag_factor=1)
    line = bytes(64)
    assert gold.fill(0, line) == []
    hit, latency, data = gold.read(0)
    assert hit and latency == 14.0 and data == line
    # Two more fills into set 0 evict the LRU line (0).
    gold.fill(2 * 64, line)
    gold.fill(4 * 64, line)
    assert not gold.contains(0)
    assert gold.counters["evictions"] == 1


def test_compressed_reference_matches_production_on_one_stream():
    """Direct replay without the driver: per-step hit/miss agreement."""
    geometry = CacheGeometry(size_bytes=4 * 1024, ways=4)
    prod = SetAssociativeCache(geometry, tag_factor=2,
                               compressor=CPackCompressor(),
                               decompression_cycles=4)
    gold = RefSetCache(geometry.n_sets, geometry.ways, tag_factor=2,
                       segments_for=cpack_segments(), compressed=True,
                       decompression_cycles=4)
    for record in collect_stream("narrow-int", 200, seed=3,
                                 working_set_lines=128):
        prod_read = prod.read(record.address)
        gold_hit, gold_latency, _ = gold.read(record.address)
        assert prod_read.hit == gold_hit
        assert prod_read.latency_cycles == gold_latency
        if not prod_read.hit:
            assert (prod.fill(record.address, record.data).writebacks
                    == gold.fill(record.address, record.data))
    assert prod.compression_ratio() == gold.compression_ratio()


def test_uncompressed_cache_never_expands():
    geometry = CacheGeometry(size_bytes=4 * 1024, ways=4)
    prod = UncompressedCache(geometry)
    gold = RefSetCache(geometry.n_sets, geometry.ways, tag_factor=1)
    for record in collect_stream("zero-heavy", 150, seed=1,
                                 working_set_lines=128):
        if not prod.read(record.address).hit:
            prod.fill(record.address, record.data)
        if not gold.read(record.address)[0]:
            gold.fill(record.address, record.data)
        if record.is_write:
            prod.writeback(record.address, record.data)
            gold.writeback(record.address, record.data)
    assert prod.stats.get("expansions") == 0
    assert gold.counters.get("expansions", 0.0) == 0.0
