"""Memory-link compression — the complementary technique of §6.

The paper notes MORC "does not compress the link and reduces bandwidth
demands solely through higher effective cache sizes"; link compression
(Thuresson et al., Sathish et al.) is orthogonal.  This extension
implements it: each 64B transfer is compressed with an intra-line codec
(C-Pack by default) and occupies the channel only for its compressed
size, floor-capped to model packet/ECC overheads.

Combined with MORC this stacks both effects — fewer transfers, each
cheaper — which the extension experiment quantifies.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import MemoryConfig
from repro.common.words import LINE_SIZE
from repro.compression.base import IntraLineCompressor
from repro.compression.cpack import CPackCompressor
from repro.mem.controller import MemoryChannel

MIN_TRANSFER_FRACTION = 0.25
"""Packet framing/ECC floor: a transfer costs at least this share of 64B."""


class LinkCompressedChannel(MemoryChannel):
    """A bandwidth-capped channel whose transfers are compressed."""

    def __init__(self, config: MemoryConfig,
                 compressor: Optional[IntraLineCompressor] = None,
                 min_fraction: float = MIN_TRANSFER_FRACTION) -> None:
        super().__init__(config)
        if not 0.0 < min_fraction <= 1.0:
            raise ValueError("min_fraction must be in (0, 1]")
        self.compressor = compressor or CPackCompressor()
        self.min_fraction = min_fraction
        self.stats.name = "link-compressed-memory"

    def _occupancy(self, data: Optional[bytes]) -> float:
        if data is None or len(data) != LINE_SIZE:
            return self._transfer_cycles
        size = self.compressor.compress(data)
        fraction = max(self.min_fraction,
                       size.size_bytes / LINE_SIZE)
        fraction = min(1.0, fraction)
        self.stats.add("compressed_transfers")
        self.stats.add("transfer_fraction_sum", fraction)
        return self._transfer_cycles * fraction
