"""Frequent Pattern Compression (Alameldeen & Wood, UW TR-1500).

FPC is the algorithm originally used by the Adaptive compressed cache; the
paper notes it "performs similarly to C-Pack" and evaluates the baselines
with C-Pack, but we include FPC both for completeness and for cross-checks
in the test suite.

Each 32-bit word gets a 3-bit prefix:

====  =======================================  ============
code  pattern                                  payload bits
====  =======================================  ============
000   zero-run (1-8 consecutive zero words)    3
001   4-bit sign-extended                      4
010   8-bit sign-extended                      8
011   16-bit sign-extended                     16
100   16-bit padded with zeros (upper half)    16
101   two half-words, each byte sign-extended  16
110   word of repeated bytes                   8
111   uncompressed                             32
====  =======================================  ============

Like C-Pack, FPC has no cross-line state, so the encoded size is a pure
function of line content; :meth:`FpcCompressor.compress` memoises it per
instance.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.bitio import BitReader, BitWriter
from repro.common.errors import CompressionError, CorruptBitstreamError
from repro.common.words import check_line, from_words32, words32
from repro.compression.base import CompressedSize, IntraLineCompressor
from repro.obs.trace import compression_event

PREFIX_BITS = 3
MAX_ZERO_RUN = 8

Token = Tuple

#: token kind -> (prefix value, prefix width); order matches the table
PREFIX_CODES: Dict[str, Tuple[int, int]] = {
    "zero_run": (0b000, PREFIX_BITS),
    "sign4": (0b001, PREFIX_BITS),
    "sign8": (0b010, PREFIX_BITS),
    "sign16": (0b011, PREFIX_BITS),
    "pad16": (0b100, PREFIX_BITS),
    "halfword_bytes": (0b101, PREFIX_BITS),
    "repeat8": (0b110, PREFIX_BITS),
    "raw": (0b111, PREFIX_BITS),
}

_PAYLOAD_BITS = {
    "zero_run": 3,
    "sign4": 4,
    "sign8": 8,
    "sign16": 16,
    "pad16": 16,
    "halfword_bytes": 16,
    "repeat8": 8,
    "raw": 32,
}

#: token kind -> total encoded size in bits (prefix + payload)
_TOKEN_BITS: Dict[str, int] = {
    kind: width + _PAYLOAD_BITS[kind]
    for kind, (_, width) in PREFIX_CODES.items()
}

#: prefix value -> token kind, for bit-stream parsing
_KIND_FOR_PREFIX = {code: kind for kind, (code, _) in PREFIX_CODES.items()}

#: content-keyed memo capacity for per-line encoded sizes
_MEMO_ENTRIES = 4096


def _sign_extends(word: int, bits: int) -> bool:
    """True if the 32-bit word is the sign extension of its low ``bits``."""
    signed = word - (1 << 32) if word & (1 << 31) else word
    low = 1 << (bits - 1)
    return -low <= signed < low


def _truncate(word: int, bits: int) -> int:
    return word & ((1 << bits) - 1)


def _extend(value: int, bits: int) -> int:
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value & 0xFFFFFFFF


class FpcCompressor(IntraLineCompressor):
    """Per-line FPC codec with zero-run folding."""

    name = "fpc"

    def __init__(self) -> None:
        self._memo: Dict[bytes, int] = {}

    def compress_tokens(self, line: bytes) -> List[Token]:
        line = check_line(line)
        tokens: List[Token] = []
        run = 0
        for word in words32(line):
            if word == 0 and run < MAX_ZERO_RUN:
                run += 1
                continue
            if run:
                tokens.append(("zero_run", run))
                run = 0
            if word == 0:
                run = 1
                continue
            tokens.append(self._encode_word(word))
        if run:
            tokens.append(("zero_run", run))
        return tokens

    @staticmethod
    def _encode_word(word: int) -> Token:
        if _sign_extends(word, 4):
            return ("sign4", _truncate(word, 4))
        if _sign_extends(word, 8):
            return ("sign8", _truncate(word, 8))
        if _sign_extends(word, 16):
            return ("sign16", _truncate(word, 16))
        if word & 0xFFFF == 0:
            return ("pad16", word >> 16)
        high, low = word >> 16, word & 0xFFFF
        if (_sign_extends_16(high, 8) and _sign_extends_16(low, 8)):
            return ("halfword_bytes", ((high & 0xFF) << 8) | (low & 0xFF))
        byte = word & 0xFF
        if word == byte * 0x01010101:
            return ("repeat8", byte)
        return ("raw", word)

    def decompress_tokens(self, tokens: List[Token]) -> bytes:
        words: List[int] = []
        for token in tokens:
            kind = token[0]
            if kind == "zero_run":
                words.extend([0] * token[1])
            elif kind == "sign4":
                words.append(_extend(token[1], 4))
            elif kind == "sign8":
                words.append(_extend(token[1], 8))
            elif kind == "sign16":
                words.append(_extend(token[1], 16))
            elif kind == "pad16":
                words.append(token[1] << 16)
            elif kind == "halfword_bytes":
                high = _extend_16(token[1] >> 8, 8)
                low = _extend_16(token[1] & 0xFF, 8)
                words.append((high << 16) | low)
            elif kind == "repeat8":
                words.append(token[1] * 0x01010101)
            elif kind == "raw":
                words.append(token[1])
            else:
                raise CorruptBitstreamError(
                    f"unknown FPC token {kind!r}", codec="fpc")
        if len(words) != 16:
            raise CorruptBitstreamError(
                f"FPC stream produced {len(words)} words", codec="fpc")
        return from_words32(words)

    def compress(self, line: bytes) -> CompressedSize:
        """Exact encoded size of ``line`` in bits (memoised, since FPC
        keeps no cross-line state)."""
        line = check_line(line)
        memo = self._memo
        bits = memo.get(line)
        if bits is not None:
            del memo[line]
            memo[line] = bits  # LRU refresh
            return CompressedSize(bits)
        bits = sum(_TOKEN_BITS[token[0]]
                   for token in self.compress_tokens(line))
        compression_event("fpc", line, bits)
        if len(memo) >= _MEMO_ENTRIES:
            del memo[next(iter(memo))]
        memo[line] = bits
        return CompressedSize(bits)

    # -- exact bit-stream serialisation ---------------------------------

    @staticmethod
    def to_bitstream(tokens: List[Token]) -> BitWriter:
        """Serialise a token stream to its exact bit encoding.

        The zero-run payload stores ``run - 1`` so runs of 1-8 fit the
        3-bit field.
        """
        writer = BitWriter()
        for token in tokens:
            kind = token[0]
            prefix, width = PREFIX_CODES[kind]
            writer.write(prefix, width)
            payload = token[1] - 1 if kind == "zero_run" else token[1]
            writer.write(payload, _PAYLOAD_BITS[kind])
        return writer

    @staticmethod
    def from_bitstream(reader: BitReader) -> List[Token]:
        """Parse tokens until 16 words' worth have been recovered."""
        tokens: List[Token] = []
        words = 0
        while words < 16:
            kind = _KIND_FOR_PREFIX[reader.read(PREFIX_BITS)]
            payload = reader.read(_PAYLOAD_BITS[kind])
            if kind == "zero_run":
                payload += 1
                words += payload
            else:
                words += 1
            tokens.append((kind, payload))
        if words != 16:
            raise CorruptBitstreamError(
                f"FPC bit stream decoded to {words} words", codec="fpc",
                offset=reader.position)
        return tokens


def _sign_extends_16(half: int, bits: int) -> bool:
    """True if a 16-bit halfword sign-extends from its low ``bits``."""
    signed = half - (1 << 16) if half & (1 << 15) else half
    low = 1 << (bits - 1)
    return -low <= signed < low


def _extend_16(value: int, bits: int) -> int:
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value & 0xFFFF
