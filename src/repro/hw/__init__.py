"""First-order hardware models (CACTI-style scaling).

The paper sources its SRAM numbers from CACTI 5.0 at 32nm; this package
provides a small analytical stand-in for the access latency of an SRAM
of arbitrary capacity (the Uncompressed-8x baseline's larger LLC).
"""

from repro.hw.area import SramModel

__all__ = ["SramModel"]
