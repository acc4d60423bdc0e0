"""Compression algorithms reproduced from the paper and its baselines.

- :mod:`repro.compression.lbe` — Large-Block Encoding (the paper's §3.2.5)
- :mod:`repro.compression.cpack` — C-Pack (Chen et al.), used by Adaptive
  and Decoupled baselines
- :mod:`repro.compression.lz` — LZ77 over a log's byte history, the
  paper's §6 software alternative to LBE (the MORC-LZ ablation)
- :mod:`repro.compression.huffman` / :mod:`repro.compression.sc2dict` —
  canonical Huffman coding with a sampled system-wide dictionary (SC2)
- :mod:`repro.compression.tag_compression` — base-delta tag compression
  with DEFLATE-style distance coding (the paper's §3.2.4, Table 2)
- :mod:`repro.compression.oracle` — ideal intra-/inter-line limit models
  (the paper's Figure 2)
"""

from repro.compression.base import CompressedSize, IntraLineCompressor
from repro.compression.cpack import CPackCompressor
from repro.compression.lbe import LbeCompressor, LbeDictionary, Symbol
from repro.compression.tag_compression import TagCompressor

__all__ = [
    "CPackCompressor",
    "CompressedSize",
    "IntraLineCompressor",
    "LbeCompressor",
    "LbeDictionary",
    "Symbol",
    "TagCompressor",
]
