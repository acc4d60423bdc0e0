"""First-order SRAM access-latency scaling.

Anchored to the paper's Table 5: a 128KB LLC slice has a 14-cycle
load-to-use latency. Wordline/bitline delay grows with the array's
linear dimensions, so latency scales ~sqrt(capacity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SramModel:
    """Access latency of an SRAM array at 32nm."""

    capacity_bytes: int

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity must be positive")

    def access_latency_cycles(self, reference_cycles: int = 14,
                              reference_bytes: int = 128 * 1024) -> int:
        """Load-to-use latency, sqrt-scaled from the Table 5 anchor.

        Wordline/bitline delay grows with array dimensions; anchored so
        a 128KB LLC slice costs the paper's 14 cycles, a 1MB array costs
        ~2.8x the wire delay (used for the Uncompressed-8x baseline).
        """
        scale = math.sqrt(self.capacity_bytes / reference_bytes)
        return max(1, round(reference_cycles * scale))
