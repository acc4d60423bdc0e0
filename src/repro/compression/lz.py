"""LZ77-style stream compression over a log's byte history.

The paper's related work (§6) reports that software LZ, used as a direct
replacement for LBE, achieves similar compression — but is impractical in
hardware (commercial engines decode only ~4 bytes/cycle).  This module
provides that reference point for the ablation harness: a classic greedy
LZ77 whose dictionary is the log's previously-appended uncompressed
bytes, exactly the stream a log replay reconstructs.

Token format (bit-exact accounting):

- literal: flag ``0`` + 8 bits
- match:   flag ``1`` + 11-bit offset (2KB window, a 512B-4KB log) +
  6-bit length (MIN_MATCH..MIN_MATCH+63)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import CompressionError
from repro.common.words import LINE_SIZE, check_line

MIN_MATCH = 3
MAX_MATCH = MIN_MATCH + 63
OFFSET_BITS = 11
LENGTH_BITS = 6
WINDOW = 1 << OFFSET_BITS
#: hash-chain search depth — the classic speed/ratio trade every real
#: LZ implementation makes; 16 recent candidates per anchor
MAX_CHAIN = 16

LITERAL_BITS = 1 + 8
MATCH_BITS = 1 + OFFSET_BITS + LENGTH_BITS

Token = Tuple  # ("lit", byte) | ("match", offset, length)


class LzHistory:
    """Per-log uncompressed history with a 3-byte anchor index."""

    __slots__ = ("data", "_anchors")

    def __init__(self) -> None:
        self.data = bytearray()
        self._anchors: Dict[bytes, List[int]] = {}

    def __len__(self) -> int:
        return len(self.data)

    def extend(self, chunk: bytes) -> Tuple[int, List[bytes]]:
        """Append bytes and index their anchors.

        Returns an undo token for :meth:`rollback` — trial compression
        (``commit=False``) extends, encodes, then rolls back, which is
        far cheaper than copying the whole index per candidate log.
        """
        base = len(self.data)
        self.data.extend(chunk)
        added: List[bytes] = []
        start = max(0, base - (MIN_MATCH - 1))
        for position in range(start, len(self.data) - MIN_MATCH + 1):
            anchor = bytes(self.data[position:position + MIN_MATCH])
            self._anchors.setdefault(anchor, []).append(position)
            added.append(anchor)
        return base, added

    def rollback(self, undo: Tuple[int, List[bytes]]) -> None:
        """Undo one :meth:`extend` (must be the most recent one)."""
        base, added = undo
        del self.data[base:]
        for anchor in reversed(added):
            positions = self._anchors.get(anchor)
            if positions:
                positions.pop()
                if not positions:
                    del self._anchors[anchor]

    def candidates(self, anchor: bytes) -> List[int]:
        return self._anchors.get(anchor, [])

    def copy(self) -> "LzHistory":
        clone = LzHistory.__new__(LzHistory)
        clone.data = bytearray(self.data)
        clone._anchors = {k: list(v) for k, v in self._anchors.items()}
        return clone


@dataclass
class LzCompressedLine:
    """Token stream and exact encoded size for one appended line."""

    tokens: Tuple[Token, ...]
    size_bits: int = field(init=False)

    def __post_init__(self) -> None:
        self.size_bits = sum(LITERAL_BITS if token[0] == "lit"
                             else MATCH_BITS for token in self.tokens)


class LzStreamCompressor:
    """Greedy LZ77 against the log's replayed byte stream."""

    name = "lz"

    def compress(self, line: bytes, history: LzHistory,
                 commit: bool = True) -> LzCompressedLine:
        """Encode ``line``; matches may reference history *and* earlier
        bytes of this line.  ``commit=False`` leaves history unchanged."""
        line = check_line(line)
        tokens, undo = self._encode(line, history)
        if not commit:
            history.rollback(undo)
        return LzCompressedLine(tuple(tokens))

    @staticmethod
    def _encode(line: bytes, history: LzHistory):
        tokens: List[Token] = []
        position = 0
        base = len(history)
        undo = history.extend(line)  # matches may look into this line
        data = history.data
        total = len(data)
        while base + position < total:
            absolute = base + position
            anchor = bytes(data[absolute:absolute + MIN_MATCH])
            best_length = 0
            best_offset = 0
            if len(anchor) == MIN_MATCH:
                chain = 0
                for candidate in reversed(history.candidates(anchor)):
                    if candidate >= absolute:
                        continue
                    offset = absolute - candidate
                    if offset > WINDOW:
                        break
                    chain += 1
                    if chain > MAX_CHAIN:
                        break
                    length = LzStreamCompressor._match_length(
                        data, candidate, absolute, total)
                    if length > best_length:
                        best_length = length
                        best_offset = offset
                        if length >= MAX_MATCH:
                            break
            if best_length >= MIN_MATCH:
                tokens.append(("match", best_offset, best_length))
                position += best_length
            else:
                tokens.append(("lit", data[absolute]))
                position += 1
        return tokens, undo

    @staticmethod
    def _match_length(data: bytearray, candidate: int, absolute: int,
                      total: int) -> int:
        length = 0
        limit = min(MAX_MATCH, total - absolute)
        while (length < limit
               and data[candidate + length] == data[absolute + length]):
            length += 1
        return length

    def decompress(self, compressed_lines, upto: Optional[int] = None,
                   ) -> List[bytes]:
        """Replay a log's token streams back into raw cache lines."""
        stream = bytearray()
        lines: List[bytes] = []
        for index, compressed in enumerate(compressed_lines):
            start = len(stream)
            self._replay(stream, compressed.tokens)
            if len(stream) - start != LINE_SIZE:
                raise CompressionError(
                    f"line {index} decoded to {len(stream) - start} bytes")
            lines.append(bytes(stream[start:]))
            if upto is not None and index >= upto:
                break
        return lines

    def decode_line(self, compressed: LzCompressedLine,
                    history: bytes) -> bytes:
        """Decode one line whose matches may reach into ``history``, the
        log's uncompressed bytes before the line was appended."""
        stream = bytearray(history)
        self._replay(stream, compressed.tokens)
        return bytes(stream[len(history):])

    @staticmethod
    def _replay(stream: bytearray, tokens: Tuple[Token, ...]) -> None:
        """Append the bytes ``tokens`` encode to ``stream``."""
        for token in tokens:
            if token[0] == "lit":
                stream.append(token[1])
            else:
                _, offset, length = token
                source = len(stream) - offset
                if source < 0:
                    raise CompressionError("LZ offset before stream")
                for i in range(length):  # may self-overlap
                    stream.append(stream[source + i])
