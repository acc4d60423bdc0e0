"""Bit-granular stream writer and reader.

Compression algorithms in this package (LBE, C-Pack, FPC, Huffman, tag
base-delta) all emit variable-length codes.  :class:`BitWriter` and
:class:`BitReader` provide an exact, testable bit-stream so compressed sizes
are measured bit-accurately rather than estimated.

Bits are stored most-significant-first within the stream, which matches how
the paper's prefix codes (Table 2 and Table 3) are written out.

``BitWriter`` batches writes: incoming fields accumulate into a bounded
Python int and spill into a chunk list once the accumulator passes
``_SPILL_BITS``.  Appending to an unbounded int costs O(stream length)
per write (the whole big int is copied); with spilling, each write only
shifts the small accumulator, and the chunks are folded together once in
:meth:`BitWriter.getvalue`.  The emitted stream is bit-identical to the
naive writer (see ``repro.conformance.oracles.ReferenceBitWriter``).
"""

from __future__ import annotations

from repro.common.errors import CompressionError, CorruptBitstreamError


class BitWriter:
    """Accumulates bits most-significant-first into a growable buffer."""

    __slots__ = ("_chunks", "_acc", "_acc_bits", "_length")

    #: accumulator size (bits) at which a chunk is spilled; large enough
    #: that per-line symbol streams never spill, small enough that long
    #: streams (whole-log Huffman) avoid quadratic big-int appends
    _SPILL_BITS = 4096

    def __init__(self) -> None:
        self._chunks: list[tuple[int, int]] = []
        self._acc = 0
        self._acc_bits = 0
        self._length = 0

    def __len__(self) -> int:
        return self._length

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._length

    def write(self, value: int, width: int) -> None:
        """Append ``width`` bits holding ``value`` (MSB first).

        ``value`` must fit in ``width`` bits and be non-negative.
        """
        if width < 0:
            raise CompressionError(f"negative bit width: {width}")
        if value < 0 or (width < value.bit_length()):
            raise CompressionError(
                f"value {value} does not fit in {width} bits"
            )
        self._acc = (self._acc << width) | value
        self._acc_bits += width
        self._length += width
        if self._acc_bits >= self._SPILL_BITS:
            self._chunks.append((self._acc, self._acc_bits))
            self._acc = 0
            self._acc_bits = 0

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self.write(1 if bit else 0, 1)

    def extend(self, other: "BitWriter") -> None:
        """Append all bits from another writer."""
        value, length = other.getvalue()
        if length == 0:
            return
        # Spill the local accumulator, then adopt the other stream as one
        # pre-packed chunk; relative bit order is unchanged.
        if self._acc_bits:
            self._chunks.append((self._acc, self._acc_bits))
            self._acc = 0
            self._acc_bits = 0
        self._chunks.append((value, length))
        self._length += length

    def getvalue(self) -> tuple[int, int]:
        """Return ``(packed_int, bit_length)`` for the whole stream."""
        if not self._chunks:
            return self._acc, self._length
        value = 0
        for chunk_value, chunk_bits in self._chunks:
            value = (value << chunk_bits) | chunk_value
        value = (value << self._acc_bits) | self._acc
        return value, self._length

    def to_bytes(self) -> bytes:
        """Pack the stream into bytes, padding the final byte with zeros."""
        if self._length == 0:
            return b""
        value, length = self.getvalue()
        pad = (-length) % 8
        return (value << pad).to_bytes((length + pad) // 8, "big")


class BitReader:
    """Reads bits most-significant-first from a packed stream.

    With ``strict=True`` the constructor bounds-checks the packed value
    against the declared ``bit_length`` — a stream whose integer does
    not fit its advertised width is rejected up front instead of
    silently decoding from the wrong bit positions.  Read-past-end
    always raises :class:`CorruptBitstreamError` (a
    :class:`CompressionError`) carrying the failing bit offset, never
    ``IndexError``.  :meth:`peek` keeps its zero-padding semantics in
    both modes — prefix-table decoders rely on short tails being padded
    on the right.
    """

    __slots__ = ("_value", "_length", "_pos", "_strict")

    def __init__(self, value: int, bit_length: int,
                 strict: bool = False) -> None:
        if bit_length < 0:
            raise CompressionError(f"negative bit length: {bit_length}")
        if strict:
            if value < 0:
                raise CorruptBitstreamError(
                    f"negative packed value {value}", offset=0)
            if value.bit_length() > bit_length:
                raise CorruptBitstreamError(
                    f"packed value needs {value.bit_length()} bits but "
                    f"stream declares {bit_length}", offset=0)
        self._value = value
        self._length = bit_length
        self._pos = 0
        self._strict = strict

    @classmethod
    def from_writer(cls, writer: BitWriter,
                    strict: bool = False) -> "BitReader":
        """Create a reader over everything a writer holds."""
        value, length = writer.getvalue()
        return cls(value, length, strict=strict)

    @classmethod
    def from_bytes(cls, data: bytes, bit_length: int | None = None,
                   strict: bool = False) -> "BitReader":
        """Create a reader from packed bytes (optionally trimmed)."""
        total = len(data) * 8
        if bit_length is None:
            bit_length = total
        if bit_length > total:
            raise CompressionError("bit_length exceeds available data")
        value = int.from_bytes(data, "big") >> (total - bit_length)
        return cls(value, bit_length, strict=strict)

    @property
    def remaining(self) -> int:
        """Number of unread bits."""
        return self._length - self._pos

    @property
    def position(self) -> int:
        """Number of bits consumed so far."""
        return self._pos

    def read(self, width: int) -> int:
        """Consume and return ``width`` bits as an unsigned integer."""
        if width < 0:
            raise CompressionError(f"negative bit width: {width}")
        if width > self._length - self._pos:
            raise CorruptBitstreamError(
                f"bitstream underflow: wanted {width}, have "
                f"{self.remaining}", offset=self._pos)
        shift = self._length - self._pos - width
        mask = (1 << width) - 1
        self._pos += width
        return (self._value >> shift) & mask

    def read_bit(self) -> int:
        """Consume and return one bit."""
        return self.read(1)

    def peek(self, width: int) -> int:
        """Return the next ``width`` bits without consuming them.

        If fewer than ``width`` bits remain, the available bits are returned
        left-aligned (zero padded on the right), which is convenient for
        prefix-code tables.
        """
        avail = min(width, self.remaining)
        shift = self._length - self._pos - avail
        bits = (self._value >> shift) & ((1 << avail) - 1)
        return bits << (width - avail)
