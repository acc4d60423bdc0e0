"""C-Pack cache compression (Chen et al., TVLSI 2010).

C-Pack is the intra-line algorithm used by the Adaptive and Decoupled
baselines in the paper's evaluation (§4: "both Adaptive and Decoupled were
evaluated with C-Pack").  It compresses a 64-byte line as sixteen 32-bit
words against a small FIFO dictionary that is reset for every line.

Pattern codes (from the C-Pack paper)::

    zzzz  (00)            all-zero word                    2 bits
    xxxx  (01)   + 32b    uncompressed word                34 bits
    mmmm  (10)   + 4b     full dictionary match            6 bits
    mmxx  (1100) + 4b+16b match on upper half              24 bits
    zzzx  (1101) + 8b     three zero bytes + one literal   12 bits
    mmmx  (1110) + 4b+8b  match on upper three bytes       16 bits

Words that do not match in full (``xxxx``, ``mmxx``, ``mmmx``) are pushed
into the dictionary.  The dictionary holds 16 entries (64 bytes) and is
FIFO-replaced; the paper notes the fixed 4-bit pointer per 32-bit word
caps C-Pack's ratio at 8x.

The dictionary resets every line, so a line's encoding depends only on
its content.  :meth:`CPackCompressor.compress` needs only the size, and
sizes a line in one pass without building tokens (:func:`_line_bits`).
A content-keyed LRU memo in front of it pays off on the zero- and
duplicate-heavy workloads where the same lines refill the cache
repeatedly.  The token path (:meth:`~CPackCompressor.compress_tokens`,
the bitstream serialisers and
:meth:`~CPackCompressor.decompress_tokens`) is the decodable encoding
the size stands for; verification and the fuzz tests run it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.bitio import BitReader, BitWriter
from repro.common.errors import CorruptBitstreamError
from repro.common.words import LINE_SIZE, check_line, from_words32, words32
from repro.compression.base import CompressedSize, IntraLineCompressor
from repro.obs.trace import compression_event

DICTIONARY_ENTRIES = 16
POINTER_BITS = 4

#: pattern code -> (prefix value, prefix width in bits)
PREFIX_CODES: Dict[str, Tuple[int, int]] = {
    "zzzz": (0b00, 2),
    "xxxx": (0b01, 2),
    "mmmm": (0b10, 2),
    "mmxx": (0b1100, 4),
    "zzzx": (0b1101, 4),
    "mmmx": (0b1110, 4),
}

#: content-keyed memo capacity for per-line encoded sizes
_MEMO_ENTRIES = 4096

Token = Tuple  # (kind, *payload)


def _line_bits(line: bytes) -> int:
    """Encoded size of one line in bits, in one pass and without tokens.

    Equal to the summed token widths of
    :meth:`CPackCompressor.compress_tokens`.  Each of a line's sixteen
    words pushes at most one entry into the :data:`DICTIONARY_ENTRIES`
    dictionary, so the FIFO never overwrites an entry within a line:
    every word pushed earlier in the line is still there, and the
    dictionary scans reduce to membership in the pushed words, their
    upper 24 bits and their upper 16 bits.  Zero and one-byte words
    (``zzzz``, ``zzzx``) are never pushed.
    """
    full: set = set()
    upper24: set = set()
    upper16: set = set()
    bits = 0
    for word in words32(line):
        if word == 0:
            bits += 2                   # zzzz
        elif word < (1 << 8):
            bits += 12                  # zzzx
        elif word in full:
            bits += 6                   # mmmm
        else:
            high24 = word >> 8
            high16 = word >> 16
            if high24 in upper24:
                bits += 16              # mmmx
            elif high16 in upper16:
                bits += 24              # mmxx
            else:
                bits += 34              # xxxx
            full.add(word)
            upper24.add(high24)
            upper16.add(high16)
    return bits


class _FifoDictionary:
    """16-entry FIFO dictionary of 32-bit words."""

    __slots__ = ("_entries", "_next")

    def __init__(self) -> None:
        self._entries: List[int] = []
        self._next = 0

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[int]:
        return list(self._entries)

    def find_full(self, word: int) -> int:
        """Index of a full 32-bit match, or -1."""
        try:
            return self._entries.index(word)
        except ValueError:
            return -1

    def find_partial(self, word: int, matched_bytes: int) -> int:
        """Index of an entry matching the upper ``matched_bytes``, or -1."""
        shift = (4 - matched_bytes) * 8
        target = word >> shift
        for index, entry in enumerate(self._entries):
            if entry >> shift == target:
                return index
        return -1

    def push(self, word: int) -> None:
        """FIFO insert (overwrites the oldest entry once full)."""
        if len(self._entries) < DICTIONARY_ENTRIES:
            self._entries.append(word)
        else:
            self._entries[self._next] = word
            self._next = (self._next + 1) % DICTIONARY_ENTRIES

    def at(self, index: int) -> int:
        try:
            return self._entries[index]
        except IndexError:
            raise CorruptBitstreamError(
                f"dangling C-Pack pointer: index={index} with "
                f"{len(self._entries)} entries", codec="cpack") from None


class CPackCompressor(IntraLineCompressor):
    """Per-line C-Pack codec."""

    name = "cpack"

    def __init__(self) -> None:
        self._memo: Dict[bytes, int] = {}

    def compress_tokens(self, line: bytes) -> List[Token]:
        """Encode ``line`` into C-Pack tokens (dictionary reset per line)."""
        line = check_line(line)
        dictionary = _FifoDictionary()
        tokens: List[Token] = []
        for word in words32(line):
            tokens.append(self._encode_word(word, dictionary))
        return tokens

    @staticmethod
    def _encode_word(word: int, dictionary: _FifoDictionary) -> Token:
        if word == 0:
            return ("zzzz",)
        if word < (1 << 8):
            # Three zero bytes plus one literal byte.
            return ("zzzx", word)
        index = dictionary.find_full(word)
        if index >= 0:
            return ("mmmm", index)
        index = dictionary.find_partial(word, 3)
        if index >= 0:
            dictionary.push(word)
            return ("mmmx", index, word & 0xFF)
        index = dictionary.find_partial(word, 2)
        if index >= 0:
            dictionary.push(word)
            return ("mmxx", index, word & 0xFFFF)
        dictionary.push(word)
        return ("xxxx", word)

    def decompress_tokens(self, tokens: List[Token]) -> bytes:
        """Rebuild the 64-byte line from a token stream."""
        dictionary = _FifoDictionary()
        words: List[int] = []
        for token in tokens:
            kind = token[0]
            if kind == "zzzz":
                words.append(0)
            elif kind == "zzzx":
                words.append(token[1])
            elif kind == "xxxx":
                words.append(token[1])
                dictionary.push(token[1])
            elif kind == "mmmm":
                words.append(dictionary.at(token[1]))
            elif kind == "mmmx":
                word = (dictionary.at(token[1]) & ~0xFF) | token[2]
                words.append(word)
                dictionary.push(word)
            elif kind == "mmxx":
                word = (dictionary.at(token[1]) & ~0xFFFF) | token[2]
                words.append(word)
                dictionary.push(word)
            else:
                raise CorruptBitstreamError(
                    f"unknown C-Pack token {kind!r}", codec="cpack")
        if len(words) != LINE_SIZE // 4:
            raise CorruptBitstreamError(
                f"C-Pack stream decodes to {len(words)} words, "
                f"expected {LINE_SIZE // 4}", codec="cpack")
        return from_words32(words)

    def compress(self, line: bytes) -> CompressedSize:
        """Exact encoded size of ``line`` in bits.

        The per-line dictionary reset makes the size a pure function of
        content, so repeated lines are answered from an LRU memo and new
        ones are sized by :func:`_line_bits` without building tokens.
        """
        line = check_line(line)
        memo = self._memo
        bits = memo.get(line)
        if bits is not None:
            del memo[line]
            memo[line] = bits  # LRU refresh
            return CompressedSize(bits)
        bits = _line_bits(line)
        compression_event("cpack", line, bits)
        if len(memo) >= _MEMO_ENTRIES:
            del memo[next(iter(memo))]
        memo[line] = bits
        return CompressedSize(bits)

    # -- exact bit-stream serialisation ---------------------------------

    @staticmethod
    def to_bitstream(tokens: List[Token]) -> BitWriter:
        """Serialise a token stream to its exact bit encoding."""
        writer = BitWriter()
        for token in tokens:
            kind = token[0]
            prefix, width = PREFIX_CODES[kind]
            writer.write(prefix, width)
            if kind == "xxxx":
                writer.write(token[1], 32)
            elif kind == "mmmm":
                writer.write(token[1], POINTER_BITS)
            elif kind == "mmxx":
                writer.write(token[1], POINTER_BITS)
                writer.write(token[2], 16)
            elif kind == "zzzx":
                writer.write(token[1], 8)
            elif kind == "mmmx":
                writer.write(token[1], POINTER_BITS)
                writer.write(token[2], 8)
        return writer

    @staticmethod
    def from_bitstream(reader: BitReader) -> List[Token]:
        """Parse one line's worth (16 words) of tokens from a bit stream."""
        tokens: List[Token] = []
        while len(tokens) < LINE_SIZE // 4:
            code = reader.read(2)
            if code == 0b00:
                tokens.append(("zzzz",))
            elif code == 0b01:
                tokens.append(("xxxx", reader.read(32)))
            elif code == 0b10:
                tokens.append(("mmmm", reader.read(POINTER_BITS)))
            else:
                code = (code << 2) | reader.read(2)
                if code == 0b1100:
                    tokens.append(("mmxx", reader.read(POINTER_BITS),
                                   reader.read(16)))
                elif code == 0b1101:
                    tokens.append(("zzzx", reader.read(8)))
                elif code == 0b1110:
                    tokens.append(("mmmx", reader.read(POINTER_BITS),
                                   reader.read(8)))
                else:
                    raise CorruptBitstreamError(
                        "unrecognised C-Pack prefix code 1111",
                        codec="cpack", offset=reader.position)
        return tokens
