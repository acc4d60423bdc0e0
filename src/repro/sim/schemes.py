"""Every LLC scheme the simulator runs, one frozen row each.

A row holds a scheme's facts: how to build its LLC, its compression
engine's energy per line (Figure 9) and, for Table 4's five columns, the
tag and metadata bits it adds with the paper's percentages.  A new scheme
is one new row.  A row without a builder or engine entry, or naming an
unknown energy field or MORC algorithm, fails at import.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable, Optional, Tuple

from repro.cache.base import LLCInterface
from repro.cache.set_assoc import (AdaptiveCache, DecoupledCache, Sc2Cache,
                                   UncompressedCache)
from repro.common.config import EnergyParams, SystemConfig
from repro.common.errors import ConfigError
from repro.morc.cache import MorcCache
from repro.morc.codecs import ALGORITHMS

#: Table 4's setting (§3.3): a 128KB cache of 64B lines with 40-bit tags
#: (tag + state); MORC's LMT covers 8x compression at 11 bits per entry
#: (2 state + 8 log index, rounded up).
N_LINES = 128 * 1024 // 64  # 2048
TAG_BITS = 40
_LMT_BITS = 8 * N_LINES * 11
_CAPACITY_BITS = N_LINES * 64 * 8

_ENERGY_FIELDS = frozenset(f.name for f in fields(EnergyParams))


@dataclass(frozen=True)
class Overheads:
    """One Table 4 column: the bits a scheme adds to a 128KB data store,
    and the paper's Tags, Metadata and Tags+Meta percentages."""

    extra_tag_bits: int
    metadata_bits: int
    engine_area_mm2: float
    dictionary_bytes: int
    paper_pct: Tuple[float, float, float]

    @property
    def tags_pct(self) -> float:
        return 100.0 * self.extra_tag_bits / _CAPACITY_BITS

    @property
    def metadata_pct(self) -> float:
        return 100.0 * self.metadata_bits / _CAPACITY_BITS

    @property
    def total_pct(self) -> float:
        return self.tags_pct + self.metadata_pct


@dataclass(frozen=True)
class Scheme:
    """One runnable LLC scheme."""

    name: str
    #: ``build(name, config, capacity_bytes)`` -> the scheme's LLC
    build: Callable[[str, SystemConfig, int], LLCInterface]
    #: ``EnergyParams`` fields of the engine's (compress, decompress)
    #: joules per line; None when the scheme runs no engine
    engine: Optional[Tuple[str, str]]
    overheads: Optional[Overheads] = None
    #: one of the paper's five evaluated schemes (Figures 6 and 8)
    headline: bool = False

    def __post_init__(self) -> None:
        if self.engine and not _ENERGY_FIELDS.issuperset(self.engine):
            raise ConfigError(f"scheme {self.name!r}: engine {self.engine}"
                              " names a field EnergyParams lacks")


@dataclass(frozen=True)
class MorcBuilder:
    """Builds a :class:`MorcCache` with one data ``algorithm``, its tags
    merged into the data logs if ``merged``."""

    algorithm: str
    merged: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown MORC algorithm {self.algorithm!r}")

    def __call__(self, name, config, capacity_bytes) -> MorcCache:
        morc = config.morc
        if self.merged and not morc.merged_tags:
            morc = config.with_morc(merged_tags=True).morc
        # An LBE cache names itself MORC or MORCMerged by its tag layout.
        return MorcCache(capacity_bytes, morc, config.llc_latency_cycles,
                         config.morc_decompression_bytes_per_cycle,
                         config.tag_decode_tags_per_cycle, self.algorithm,
                         None if self.algorithm == "lbe" else name)


def _uncompressed(name, config, capacity_bytes, scale=1):
    base = config.llc_latency_cycles
    if scale > 1:
        from repro.hw.area import SramModel
        # A physically larger SRAM is slower (the paper's §5.3 point that
        # compression beats simply building a bigger cache).
        base = SramModel(capacity_bytes * scale).access_latency_cycles(
            reference_cycles=base, reference_bytes=capacity_bytes)
    return UncompressedCache(replace(config.llc_per_core,
                                     size_bytes=capacity_bytes * scale),
                             base_latency_cycles=base)


def _intra(cache_class, name, config, capacity_bytes):
    """An intra-line compressed cache of ``cache_class``."""
    return cache_class(replace(config.llc_per_core, size_bytes=capacity_bytes),
                       base_latency_cycles=config.llc_latency_cycles,
                       decompression_cycles=config.intra_decompression_cycles)


_CPACK = ("cpack_compress_j", "cpack_decompress_j")
_SC2 = ("sc2_compress_j", "sc2_decompress_j")
_LBE = ("lbe_compress_j", "lbe_decompress_j")

#: every runnable scheme, in ``repro list`` order
SCHEMES: Tuple[Scheme, ...] = (
    Scheme("Uncompressed", _uncompressed, None, headline=True),
    # 2x tags; ~28 bits of bookkeeping (size, status, segment base) per
    # doubled tag.
    Scheme("Adaptive", partial(_intra, AdaptiveCache), _CPACK, Overheads(
        N_LINES * TAG_BITS, 2 * N_LINES * 28, 0.02, 128,
        (7.81, 10.93, 18.74)), headline=True),
    # Four neighbours share one super-tag, so 4x coverage costs no extra
    # tag bits; the per-line segment-pointer vector is the metadata.
    Scheme("Decoupled", partial(_intra, DecoupledCache), _CPACK, Overheads(
        0, N_LINES * 44, 0.02, 128, (0.00, 8.59, 8.59)), headline=True),
    # 4x tags (3x extra) and per-tag size/status bits; the Huffman
    # dictionary is the 18KB.
    Scheme("SC2", partial(_intra, Sc2Cache), _SC2, Overheads(
        3 * N_LINES * TAG_BITS, 2 * N_LINES * 26, 0.02, 18 * 1024,
        (23.43, 10.15, 33.58)), headline=True),
    # A 2x tag store (1x extra, compressed at runtime) and the LMT.
    Scheme("MORC", MorcBuilder("lbe"), _LBE, Overheads(
        N_LINES * TAG_BITS, _LMT_BITS, 0.08, 1024, (7.81, 17.18, 25.00)),
        headline=True),
    Scheme("Uncompressed8x", partial(_uncompressed, scale=8), None),
    # Tags merged into the data logs: no tag store, the same LMT.
    Scheme("MORCMerged", MorcBuilder("lbe", merged=True), _LBE, Overheads(
        0, _LMT_BITS, 0.08, 1024, (0.00, 17.18, 17.18))),
    Scheme("MORC-CPack", MorcBuilder("cpack"), _CPACK),
    # Hardware LZ engines are costlier than LBE; SC2's figures are the
    # closest published proxy for a table-driven decoder.
    Scheme("MORC-LZ", MorcBuilder("lz"), _SC2),
    Scheme("MORC-Raw", MorcBuilder("raw"), None),
)

NAMES = tuple(row.name for row in SCHEMES)
ALL_SCHEMES = tuple(row.name for row in SCHEMES if row.headline)
COMPRESSED_SCHEMES = tuple(row.name for row in SCHEMES
                           if row.headline and row.engine)


def get_scheme(name: str) -> Scheme:
    """The row called ``name``; ``ConfigError`` if there is none."""
    for row in SCHEMES:
        if row.name == name:
            return row
    raise ConfigError(f"unknown scheme {name!r}; known schemes: "
                      f"{', '.join(NAMES)}")
