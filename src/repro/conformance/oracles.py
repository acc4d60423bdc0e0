"""Test oracles for the optimised compression kernels.

These are the straight-line kernels the repository shipped before the
hot paths were optimised, preserved verbatim in behaviour.  They are the
golden standard the live codecs are held to:

- ``tests/test_perf_equivalence.py`` and ``tests/test_fill_path.py``
  assert the live kernels produce identical bits, symbols and committed
  dictionaries;
- ``benchmarks/bench_perf.py`` times the live kernels against them.

Nothing in the simulator calls them.  Everything here trades speed for
obviousness on purpose: no memoisation, no precomputed tables beyond
what the algorithm defines, one function call per recursion step.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import CompressionError
from repro.common.words import LINE_SIZE, check_line, words32
from repro.compression.lbe import (
    CHUNK_BYTES,
    DICT_CAPACITY,
    POINTER_BITS,
    PREFIX_CODES,
    CompressedLine,
    LbeDictionary,
    Symbol,
)

# -- LBE ----------------------------------------------------------------

#: (match bits, zero bits) per granularity, from Table 3
_MEASURE_BITS = {
    4: (2 + POINTER_BITS[4], 4),
    8: (4 + POINTER_BITS[8], 4),
    16: (5 + POINTER_BITS[16], 5),
    32: (5 + POINTER_BITS[32], 5),
}
_ZERO_LINE_BITS = 2 * PREFIX_CODES["z256"][1]

_KIND_FOR_SIZE = {4: ("m32", "z32"), 8: ("m64", "z64"),
                  16: ("m128", "z128"), 32: ("m256", "z256")}


def reference_lbe_measure(line: bytes, dictionary: LbeDictionary) -> int:
    """Seed implementation of :meth:`LbeCompressor.measure`."""
    line = check_line(line)
    if not any(line):
        return _ZERO_LINE_BITS
    added: Dict[int, Dict[bytes, bool]] = {g: {} for g in DICT_CAPACITY}
    bits = 0
    for start in range(0, LINE_SIZE, CHUNK_BYTES):
        chunk = line[start:start + CHUNK_BYTES]
        failed: List[bytes] = []
        bits += _measure_block(chunk, dictionary, added, failed)
        for block in failed:
            _measure_insert(block, dictionary, added)
    return bits


def _measure_block(block: bytes, dictionary: LbeDictionary,
                   added: Dict[int, Dict[bytes, bool]],
                   failed: List[bytes]) -> int:
    size = len(block)
    match_bits, zero_bits = _MEASURE_BITS[size]
    if not any(block):
        return zero_bits
    if dictionary.lookup(block) is not None or block in added[size]:
        return match_bits
    if size == 4:
        _measure_insert(block, dictionary, added)
        value = int.from_bytes(block, "big")
        if value < (1 << 8):
            return 4 + 8
        if value < (1 << 16):
            return 3 + 16
        return 2 + 32
    half = size // 2
    bits = (_measure_block(block[:half], dictionary, added, failed)
            + _measure_block(block[half:], dictionary, added, failed))
    failed.append(block)
    return bits


def _measure_insert(block: bytes, dictionary: LbeDictionary,
                    added: Dict[int, Dict[bytes, bool]]) -> None:
    size = len(block)
    local = added[size]
    if block in local or dictionary.lookup(block) is not None:
        return
    if dictionary.entry_count(size) + len(local) >= DICT_CAPACITY[size]:
        return
    local[block] = True


class _ReferenceOverlay:
    """Seed implementation of the trial-compression dictionary view."""

    __slots__ = ("base", "added", "order")

    def __init__(self, base: LbeDictionary) -> None:
        self.base = base
        self.added: Dict[int, Dict[bytes, int]] = {g: {}
                                                   for g in DICT_CAPACITY}
        self.order: List[bytes] = []

    def lookup(self, block: bytes) -> Optional[int]:
        index = self.base.lookup(block)
        if index is not None:
            return index
        return self.added[len(block)].get(block)

    def insert(self, block: bytes) -> None:
        size = len(block)
        local = self.added[size]
        if block in local or self.base.lookup(block) is not None:
            return
        if self.base.entry_count(size) + len(local) >= DICT_CAPACITY[size]:
            return
        local[block] = self.base.entry_count(size) + len(local)
        self.order.append(block)

    def commit(self) -> None:
        for block in self.order:
            self.base.insert(block)


def reference_lbe_compress(line: bytes, dictionary: LbeDictionary,
                           commit: bool = True) -> CompressedLine:
    """Seed implementation of :meth:`LbeCompressor.compress`."""
    line = check_line(line)
    overlay = _ReferenceOverlay(dictionary)
    symbols: List[Symbol] = []
    for start in range(0, LINE_SIZE, CHUNK_BYTES):
        chunk = line[start:start + CHUNK_BYTES]
        failed: List[bytes] = []
        _encode_block(chunk, overlay, symbols, failed)
        for block in failed:
            overlay.insert(block)
    if commit:
        overlay.commit()
    return CompressedLine(tuple(symbols))


def _encode_block(block: bytes, overlay: _ReferenceOverlay,
                  out: List[Symbol], failed: List[bytes]) -> None:
    size = len(block)
    match_kind, zero_kind = _KIND_FOR_SIZE[size]
    if not any(block):
        out.append(Symbol(zero_kind))
        return
    index = overlay.lookup(block)
    if index is not None:
        out.append(Symbol(match_kind, index=index))
        return
    if size == 4:
        _encode_literal(block, overlay, out)
        return
    half = size // 2
    _encode_block(block[:half], overlay, out, failed)
    _encode_block(block[half:], overlay, out, failed)
    failed.append(block)


def _encode_literal(block: bytes, overlay: _ReferenceOverlay,
                    out: List[Symbol]) -> None:
    value = int.from_bytes(block, "big")
    if value < (1 << 8):
        out.append(Symbol("u8", value=value))
    elif value < (1 << 16):
        out.append(Symbol("u16", value=value))
    else:
        out.append(Symbol("u32", value=value))
    overlay.insert(block)


# -- C-Pack -------------------------------------------------------------

_CPACK_DICTIONARY_ENTRIES = 16
_CPACK_TOKEN_BITS = {
    "zzzz": 2,
    "xxxx": 2 + 32,
    "mmmm": 2 + 4,
    "mmxx": 4 + 4 + 16,
    "zzzx": 4 + 8,
    "mmmx": 4 + 4 + 8,
}


def reference_cpack_tokens(line: bytes) -> List[tuple]:
    """Seed implementation of :meth:`CPackCompressor.compress_tokens`."""
    line = check_line(line)
    entries: List[int] = []
    next_slot = 0
    tokens: List[tuple] = []

    def push(word: int) -> None:
        nonlocal next_slot
        if len(entries) < _CPACK_DICTIONARY_ENTRIES:
            entries.append(word)
        else:
            entries[next_slot] = word
            next_slot = (next_slot + 1) % _CPACK_DICTIONARY_ENTRIES

    def find_partial(word: int, matched_bytes: int) -> int:
        shift = (4 - matched_bytes) * 8
        target = word >> shift
        for index, entry in enumerate(entries):
            if entry >> shift == target:
                return index
        return -1

    for word in words32(line):
        if word == 0:
            tokens.append(("zzzz",))
            continue
        if word < (1 << 8):
            tokens.append(("zzzx", word))
            continue
        try:
            tokens.append(("mmmm", entries.index(word)))
            continue
        except ValueError:
            pass
        index = find_partial(word, 3)
        if index >= 0:
            push(word)
            tokens.append(("mmmx", index, word & 0xFF))
            continue
        index = find_partial(word, 2)
        if index >= 0:
            push(word)
            tokens.append(("mmxx", index, word & 0xFFFF))
            continue
        push(word)
        tokens.append(("xxxx", word))
    return tokens


def reference_cpack_bits(line: bytes) -> int:
    """Exact C-Pack encoded size of ``line``, reference path."""
    return sum(_CPACK_TOKEN_BITS[token[0]]
               for token in reference_cpack_tokens(line))


# -- FPC ----------------------------------------------------------------

_FPC_PREFIX_BITS = 3
_FPC_MAX_ZERO_RUN = 8
_FPC_PAYLOAD_BITS = {
    "zero_run": 3, "sign4": 4, "sign8": 8, "sign16": 16,
    "pad16": 16, "halfword_bytes": 16, "repeat8": 8, "raw": 32,
}


def _sign_extends(word: int, bits: int) -> bool:
    signed = word - (1 << 32) if word & (1 << 31) else word
    low = 1 << (bits - 1)
    return -low <= signed < low


def _sign_extends_16(half: int, bits: int) -> bool:
    signed = half - (1 << 16) if half & (1 << 15) else half
    low = 1 << (bits - 1)
    return -low <= signed < low


def reference_fpc_tokens(line: bytes) -> List[tuple]:
    """Seed implementation of :meth:`FpcCompressor.compress_tokens`."""
    line = check_line(line)
    tokens: List[tuple] = []
    run = 0
    for word in words32(line):
        if word == 0 and run < _FPC_MAX_ZERO_RUN:
            run += 1
            continue
        if run:
            tokens.append(("zero_run", run))
            run = 0
        if word == 0:
            run = 1
            continue
        tokens.append(_fpc_encode_word(word))
    if run:
        tokens.append(("zero_run", run))
    return tokens


def _fpc_encode_word(word: int) -> tuple:
    if _sign_extends(word, 4):
        return ("sign4", word & 0xF)
    if _sign_extends(word, 8):
        return ("sign8", word & 0xFF)
    if _sign_extends(word, 16):
        return ("sign16", word & 0xFFFF)
    if word & 0xFFFF == 0:
        return ("pad16", word >> 16)
    high, low = word >> 16, word & 0xFFFF
    if _sign_extends_16(high, 8) and _sign_extends_16(low, 8):
        return ("halfword_bytes", ((high & 0xFF) << 8) | (low & 0xFF))
    byte = word & 0xFF
    if word == byte * 0x01010101:
        return ("repeat8", byte)
    return ("raw", word)


def reference_fpc_bits(line: bytes) -> int:
    """Exact FPC encoded size of ``line``, reference path."""
    return sum(_FPC_PREFIX_BITS + _FPC_PAYLOAD_BITS[token[0]]
               for token in reference_fpc_tokens(line))


# -- bit I/O ------------------------------------------------------------

class ReferenceBitWriter:
    """Seed :class:`~repro.common.bitio.BitWriter`: one growing int."""

    def __init__(self) -> None:
        self._value = 0
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def write(self, value: int, width: int) -> None:
        if width < 0:
            raise CompressionError(f"negative bit width: {width}")
        if value < 0 or (width < value.bit_length()):
            raise CompressionError(
                f"value {value} does not fit in {width} bits")
        self._value = (self._value << width) | value
        self._length += width

    def getvalue(self) -> tuple:
        return self._value, self._length

    def to_bytes(self) -> bytes:
        if self._length == 0:
            return b""
        pad = (-self._length) % 8
        return (self._value << pad).to_bytes((self._length + pad) // 8,
                                             "big")
