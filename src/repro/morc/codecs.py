"""MORC's data codecs behind one interface (paper §3.2.5, §6).

``MorcCache(algorithm=...)`` picks the codec for a log's data: ``"lbe"``
(the evaluated design), ``"cpack"`` (per-line C-Pack in the same logs,
§3.2.5's ablation), ``"lz"`` (LZ77 over the log stream, §6's software
reference) or ``"raw"`` (lines and tags uncompressed, Figure 12).  Each
codec has ``new_state()``, a fresh log's state; ``trial(state, data,
limit)``, the bits ``data`` would take in that log, or ``None`` when it
would take more than ``limit`` (the log's data room), leaving ``state``
unchanged; and ``commit(state, data, cache)``, which appends ``data``
and returns its bits with LBE's bytes per symbol kind for Figure 7
(``None`` for the others), checking the round trip under
``REPRO_VERIFY``.  No codec keeps an encoded stream: the model needs
only sizes and the codec state later lines are coded against.  Sizes are
clamped to a raw line: a real design stores the raw line when
compression expands it, so a ``limit`` of a raw line or more never
rejects.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import CacheError
from repro.common.words import LINE_SIZE
from repro.compression.cpack import CPackCompressor
from repro.compression.lbe import LbeCompressor, LbeDictionary
from repro.compression.lz import LzHistory, LzStreamCompressor
from repro.compression.tag_compression import (
    FULL_TAG_BITS,
    TagCompressor,
    VALID_BITS,
)
from repro.resilience import verify as res_verify

UNCOMPRESSED_LINE_BITS = LINE_SIZE * 8
UNCOMPRESSED_TAG_BITS = FULL_TAG_BITS + VALID_BITS


class RawCodec:
    """Stores lines uncompressed (MORC-Raw)."""

    def new_state(self) -> None:
        return None

    def trial(self, state, data: bytes, limit: int) -> Optional[int]:
        return (UNCOMPRESSED_LINE_BITS if limit >= UNCOMPRESSED_LINE_BITS
                else None)

    def commit(self, state, data: bytes, cache: str):
        return UNCOMPRESSED_LINE_BITS, None


RAW = RawCodec()


class LbeCodec:
    """LBE against the log's dictionary."""

    def __init__(self, verify: bool) -> None:
        self.compressor = LbeCompressor()
        self._verify = verify

    def new_state(self) -> LbeDictionary:
        return LbeDictionary()

    def trial(self, state: LbeDictionary, data: bytes,
              limit: int) -> Optional[int]:
        if limit >= UNCOMPRESSED_LINE_BITS:
            return min(self.compressor.measure(data, state),
                       UNCOMPRESSED_LINE_BITS)
        # Below a raw line the clamp cannot bring an oversize line under
        # the limit, so the walk may stop as soon as it passes it.
        return self.compressor.measure(data, state, limit)

    def commit(self, state: LbeDictionary, data: bytes, cache: str):
        snapshot = state.copy() if self._verify else None
        bits, usage = self.compressor.commit(data, state)
        if snapshot is not None:
            res_verify.verify_lbe_commit(self.compressor, data, snapshot,
                                         state, bits, usage, cache)
        return min(bits, UNCOMPRESSED_LINE_BITS), usage


class CPackCodec:
    """Per-line C-Pack: the size does not depend on the log."""

    def __init__(self, verify: bool) -> None:
        self.compressor = CPackCompressor()
        self._verify = verify

    def new_state(self) -> None:
        return None

    def _bits(self, data: bytes) -> int:
        return min(self.compressor.compress(data).size_bits,
                   UNCOMPRESSED_LINE_BITS)

    def trial(self, state, data: bytes, limit: int) -> Optional[int]:
        bits = self._bits(data)
        return bits if bits <= limit else None

    def commit(self, state, data: bytes, cache: str):
        bits = self._bits(data)
        if self._verify:
            res_verify.verify_intraline_roundtrip(self.compressor, data,
                                                  cache)
        return bits, None


class LzCodec:
    """Greedy LZ77 against the log's uncompressed byte history."""

    def __init__(self, verify: bool) -> None:
        self.compressor = LzStreamCompressor()
        self._verify = verify

    def new_state(self) -> LzHistory:
        return LzHistory()

    def trial(self, state: LzHistory, data: bytes,
              limit: int) -> Optional[int]:
        bits = min(self.compressor.compress(data, state,
                                            commit=False).size_bits,
                   UNCOMPRESSED_LINE_BITS)
        return bits if bits <= limit else None

    def commit(self, state: LzHistory, data: bytes, cache: str):
        before = bytes(state.data) if self._verify else None
        compressed = self.compressor.compress(data, state, commit=True)
        if before is not None:
            res_verify.verify_lz_roundtrip(self.compressor, data, before,
                                           compressed, cache)
        return min(compressed.size_bits, UNCOMPRESSED_LINE_BITS), None


class RawTags:
    """Uncompressed tags: the full line address plus a valid bit."""

    #: the size of every token, so also the smallest and the largest
    min_token_bits = max_token_bits = UNCOMPRESSED_TAG_BITS

    def new_stream(self) -> None:
        return None

    def measure(self, stream, line_address: int) -> int:
        return UNCOMPRESSED_TAG_BITS

    def append(self, stream, line_address: int) -> int:
        return UNCOMPRESSED_TAG_BITS


_CODECS = {"lbe": LbeCodec, "cpack": CPackCodec, "lz": LzCodec}
#: every ``algorithm`` :func:`make_codecs` accepts
ALGORITHMS = (*_CODECS, "raw")


def make_codecs(algorithm: str, tag_bases: int, verify: bool):
    """The ``(data codec, tag codec)`` pair for one MORC ``algorithm``."""
    if algorithm == "raw":
        return RAW, RawTags()
    if algorithm not in _CODECS:
        raise CacheError(f"unknown MORC data algorithm {algorithm!r}")
    return _CODECS[algorithm](verify), TagCompressor(n_bases=tag_bases)
