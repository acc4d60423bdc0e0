"""Large-Block Encoding (LBE) — the paper's §3.2.5 and Table 3.

LBE is a stream compressor: cache lines appended to the same log share one
growing dictionary, which is what lets MORC compress *across* lines.  Input
is consumed in 256-bit (32-byte) chunks.  For each chunk LBE looks for a
whole-chunk match in the 256-bit dictionary; failing that it recursively
tries the two 128-bit halves, then 64-bit, then 32-bit words.  A 32-bit
word that matches nothing is emitted as a literal — ``u8``/``u16`` when its
upper bytes are zero (significance compression), otherwise ``u32`` — and is
immediately added to the 32-bit dictionary.  All-zero blocks use the
dedicated ``z32``/``z64``/``z128``/``z256`` prefixes and carry no pointer.

Before compressing the next 256-bit chunk, LBE allocates dictionary entries
for the 64/128/256-bit sub-blocks that failed to compress (paper §3.2.5),
so identical coarse blocks seen later — in this or any later line of the
same log — match with a single short symbol.  In hardware these coarse
entries are binary-tree nodes whose leaves live in the 32-bit
(data-carrying) dictionary; in this model each granularity keeps its own
value-indexed table with the same capacity and freeze-when-full discipline,
which yields identical symbol streams.

Prefix codes (Table 3)::

    u32 00        m32 01          u16 100       z32 1010      u8 1011
    m64 1100      z64 1101        m128 11100    z128 11101
    m256 11110    z256 11111

Match symbols append a pointer sized for their dictionary; this model uses
a 512-byte engine budget: 128 x 32b data entries (7-bit pointers) and
64/32/16 tree entries at 64/128/256 bits (6/5/4-bit pointers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.bitio import BitReader, BitWriter
from repro.common.errors import CompressionError, CorruptBitstreamError
from repro.common.words import LINE_SIZE, check_line
from repro.obs.trace import compression_event

CHUNK_BYTES = 32
"""LBE reads input in 256-bit chunks."""

#: symbol kind -> (prefix value, prefix width in bits)
PREFIX_CODES: Dict[str, Tuple[int, int]] = {
    "u32": (0b00, 2),
    "m32": (0b01, 2),
    "u16": (0b100, 3),
    "z32": (0b1010, 4),
    "u8": (0b1011, 4),
    "m64": (0b1100, 4),
    "z64": (0b1101, 4),
    "m128": (0b11100, 5),
    "z128": (0b11101, 5),
    "m256": (0b11110, 5),
    "z256": (0b11111, 5),
}

#: granularity in bytes -> dictionary capacity (entries)
DICT_CAPACITY: Dict[int, int] = {4: 128, 8: 64, 16: 32, 32: 16}

#: granularity in bytes -> match pointer width in bits
POINTER_BITS: Dict[int, int] = {4: 7, 8: 6, 16: 5, 32: 4}

#: granularity in bytes -> (match kind, zero kind)
_KIND_FOR_SIZE = {4: ("m32", "z32"), 8: ("m64", "z64"),
                  16: ("m128", "z128"), 32: ("m256", "z256")}

_SIZE_FOR_KIND = {
    "u8": 4, "u16": 4, "u32": 4, "m32": 4, "z32": 4,
    "m64": 8, "z64": 8, "m128": 16, "z128": 16, "m256": 32, "z256": 32,
}

_LITERAL_BITS = {"u8": 8, "u16": 16, "u32": 32}

#: kind -> exact encoded width (prefix + pointer or literal payload);
#: every Table 3 symbol's size depends only on its kind, so the hot
#: paths use this table instead of recomputing prefix/payload sums
_SYMBOL_BITS: Dict[str, int] = {}
for _kind, (_prefix, _width) in PREFIX_CODES.items():
    if _kind.startswith("m"):
        _SYMBOL_BITS[_kind] = _width + POINTER_BITS[_SIZE_FOR_KIND[_kind]]
    elif _kind.startswith("u"):
        _SYMBOL_BITS[_kind] = _width + _LITERAL_BITS[_kind]
    else:
        _SYMBOL_BITS[_kind] = _width
del _kind, _prefix, _width

#: aligned all-zero blocks per granularity, for fast zero tests
_Z4, _Z8, _Z16, _Z32 = bytes(4), bytes(8), bytes(16), bytes(32)

#: per-dictionary measure-memo capacity (content-keyed LRU)
_MEASURE_MEMO_ENTRIES = 512


@dataclass(frozen=True, slots=True)
class Symbol:
    """One LBE output symbol.

    ``kind`` is a Table 3 mnemonic.  Match symbols carry the dictionary
    ``index``; literal symbols carry the 32-bit word ``value``.
    """

    kind: str
    index: Optional[int] = None
    value: Optional[int] = None

    @property
    def data_bytes(self) -> int:
        """How many uncompressed bytes this symbol represents."""
        return _SIZE_FOR_KIND[self.kind]

    @property
    def is_zero(self) -> bool:
        """True for the z* family (and literal zero words)."""
        return self.kind.startswith("z") or (
            self.kind.startswith("u") and self.value == 0)

    @property
    def size_bits(self) -> int:
        """Exact encoded width: prefix + pointer or literal payload."""
        return _SYMBOL_BITS[self.kind]


class LbeDictionary:
    """Per-log dictionary state for all four granularities.

    Each granularity maps block value -> entry index and freezes once its
    capacity is reached (the C-Pack discipline the paper builds on).
    """

    __slots__ = ("_maps", "_values", "_memo")

    def __init__(self) -> None:
        self._maps: Dict[int, Dict[bytes, int]] = {g: {} for g in DICT_CAPACITY}
        self._values: Dict[int, List[bytes]] = {g: [] for g in DICT_CAPACITY}
        # Content-keyed LRU of measure() results; any successful insert
        # changes what later lines can match, so it must invalidate.
        self._memo: Dict[bytes, int] = {}

    def lookup(self, block: bytes) -> Optional[int]:
        """Index of ``block`` in its granularity's dictionary, or None."""
        return self._maps[len(block)].get(block)

    def value_at(self, size: int, index: int) -> bytes:
        """Block value stored at ``index`` in the ``size``-byte dictionary."""
        try:
            return self._values[size][index]
        except IndexError:
            raise CorruptBitstreamError(
                f"dangling LBE pointer: size={size} index={index}",
                codec="lbe") from None

    def insert(self, block: bytes) -> bool:
        """Add ``block`` if its dictionary has room; True if inserted."""
        size = len(block)
        table = self._maps[size]
        if block in table or len(table) >= DICT_CAPACITY[size]:
            return False
        table[block] = len(self._values[size])
        self._values[size].append(block)
        if self._memo:
            self._memo.clear()
        return True

    def entry_count(self, size: int) -> int:
        """Number of entries currently held at one granularity."""
        return len(self._values[size])

    def copy(self) -> "LbeDictionary":
        """Deep-enough copy used for trial compression."""
        clone = LbeDictionary.__new__(LbeDictionary)
        clone._maps = {g: dict(m) for g, m in self._maps.items()}
        clone._values = {g: list(v) for g, v in self._values.items()}
        clone._memo = dict(self._memo)
        return clone


@dataclass(slots=True)
class CompressedLine:
    """The symbol stream and exact encoded size of one appended line."""

    symbols: Tuple[Symbol, ...]
    size_bits: int = field(init=False)

    def __post_init__(self) -> None:
        bits_for = _SYMBOL_BITS
        self.size_bits = sum(bits_for[symbol.kind]
                             for symbol in self.symbols)


#: the payload-free symbols, shared by every encoding: one zero symbol
#: and one match symbol per pointer value at each granularity
_ZERO_SYMBOL = {size: Symbol(zero) for size, (_, zero)
                in _KIND_FOR_SIZE.items()}
_MATCH_SYMBOLS = {size: tuple(Symbol(match, index=index)
                              for index in range(DICT_CAPACITY[size]))
                  for size, (match, _) in _KIND_FOR_SIZE.items()}

#: literal symbol width (prefix + payload) -> its kind
_LITERAL_KIND = {_SYMBOL_BITS[kind]: kind for kind in _LITERAL_BITS}
_U8_BITS, _U16_BITS, _U32_BITS = (_SYMBOL_BITS["u8"], _SYMBOL_BITS["u16"],
                                  _SYMBOL_BITS["u32"])


def _decompose(line: bytes) -> tuple:
    """Split a line into LBE's aligned 32/16/8/4-byte blocks, once.

    This is the line's plan, walked by every trial and by the commit.
    Each level is a tuple of ``(block, children)`` pairs in encoding
    order.  An all-zero block, which encodes as its z* symbol and is
    never split, is recorded as ``None``; a 4-byte word's "children" is
    the width of the literal symbol it needs when nothing matches it
    (significance compression: ``u8``/``u16`` when its upper bytes are
    zero, else ``u32``).
    """
    tree = []
    for chunk in (line[:32], line[32:]):
        if chunk == _Z32:
            tree.append((None, ()))
            continue
        halves = []
        for half in (chunk[:16], chunk[16:]):
            if half == _Z16:
                halves.append((None, ()))
                continue
            quarters = []
            for quarter in (half[:8], half[8:]):
                if quarter == _Z8:
                    quarters.append((None, ()))
                    continue
                words = []
                for word in (quarter[:4], quarter[4:]):
                    if word == _Z4:
                        words.append((None, 0))
                        continue
                    if word[0] or word[1]:
                        words.append((word, _U32_BITS))
                    elif word[2]:
                        words.append((word, _U16_BITS))
                    else:
                        words.append((word, _U8_BITS))
                quarters.append((quarter, tuple(words)))
            halves.append((half, tuple(quarters)))
        tree.append((chunk, tuple(halves)))
    return tuple(tree)


def _measure_tree(tree: tuple, dictionary: LbeDictionary) -> int:
    """Encoded size of a decomposed line, leaving ``dictionary`` untouched.

    Entries the line would allocate are tracked in local sets: a literal
    word is allocated at once, while the 64/128/256-bit blocks that
    failed to match are allocated only after their 256-bit chunk (paper
    §3.2.5), in the encoder's post-order, so capacity freezes on exactly
    the block the encoder freezes on.  Every size has its own table, so
    the order across sizes does not matter.
    """
    maps, values = dictionary._maps, dictionary._values
    m4, m8, m16, m32 = maps[4], maps[8], maps[16], maps[32]
    room4 = DICT_CAPACITY[4] - len(values[4])
    room8 = DICT_CAPACITY[8] - len(values[8])
    room16 = DICT_CAPACITY[16] - len(values[16])
    room32 = DICT_CAPACITY[32] - len(values[32])
    a4, a8, a16, a32 = set(), set(), set(), set()
    bits = 0
    last = len(tree) - 1
    for position, (chunk, halves) in enumerate(tree):
        if chunk is None:
            bits += 5               # z256
            continue
        if chunk in m32 or chunk in a32:
            bits += 9               # m256
            continue
        failed8, failed16 = [], []
        for half, quarters in halves:
            if half is None:
                bits += 5           # z128
                continue
            if half in m16 or half in a16:
                bits += 10          # m128
                continue
            for quarter, words in quarters:
                if quarter is None:
                    bits += 4       # z64
                    continue
                if quarter in m8 or quarter in a8:
                    bits += 10      # m64
                    continue
                for word, literal_bits in words:
                    if word is None:
                        bits += 4   # z32
                    elif word in m4 or word in a4:
                        bits += 9   # m32
                    else:
                        bits += literal_bits
                        if room4:
                            a4.add(word)
                            room4 -= 1
                failed8.append(quarter)
            failed16.append(half)
        if position == last:
            break                   # no later chunk can match these
        for quarter in failed8:
            if room8 and quarter not in a8:
                a8.add(quarter)
                room8 -= 1
        for half in failed16:
            if room16 and half not in a16:
                a16.add(half)
                room16 -= 1
        if room32:
            a32.add(chunk)
            room32 -= 1
    return bits


def _encode_tree(tree: tuple, dictionary: LbeDictionary
                 ) -> Tuple[Symbol, ...]:
    """Symbol stream of a decomposed line, allocating into ``dictionary``.

    The same walk as :func:`_measure_tree`, emitting symbols and writing
    new entries straight into the dictionary (their pointer is the
    table's length at insertion), so later blocks of the line match them
    exactly as the decoder will.
    """
    maps, values = dictionary._maps, dictionary._values
    m4, m8, m16, m32 = maps[4], maps[8], maps[16], maps[32]
    v4, v8, v16, v32 = values[4], values[8], values[16], values[32]
    cap4, cap8, cap16, cap32 = (DICT_CAPACITY[4], DICT_CAPACITY[8],
                                DICT_CAPACITY[16], DICT_CAPACITY[32])
    match4, match8, match16, match32 = (_MATCH_SYMBOLS[4], _MATCH_SYMBOLS[8],
                                        _MATCH_SYMBOLS[16],
                                        _MATCH_SYMBOLS[32])
    zero4, zero8, zero16, zero32 = (_ZERO_SYMBOL[4], _ZERO_SYMBOL[8],
                                    _ZERO_SYMBOL[16], _ZERO_SYMBOL[32])
    entries_before = len(v4) + len(v8) + len(v16) + len(v32)
    symbols: List[Symbol] = []
    emit = symbols.append
    for chunk, halves in tree:
        if chunk is None:
            emit(zero32)
            continue
        index = m32.get(chunk)
        if index is not None:
            emit(match32[index])
            continue
        failed8, failed16 = [], []
        for half, quarters in halves:
            if half is None:
                emit(zero16)
                continue
            index = m16.get(half)
            if index is not None:
                emit(match16[index])
                continue
            for quarter, words in quarters:
                if quarter is None:
                    emit(zero8)
                    continue
                index = m8.get(quarter)
                if index is not None:
                    emit(match8[index])
                    continue
                for word, literal_bits in words:
                    if word is None:
                        emit(zero4)
                        continue
                    index = m4.get(word)
                    if index is not None:
                        emit(match4[index])
                        continue
                    emit(Symbol(_LITERAL_KIND[literal_bits],
                                value=int.from_bytes(word, "big")))
                    if len(v4) < cap4:
                        m4[word] = len(v4)
                        v4.append(word)
                failed8.append(quarter)
            failed16.append(half)
        # Paper §3.2.5: before the next 256b chunk, allocate entries for
        # every coarse block that failed to compress.
        for quarter in failed8:
            if quarter not in m8 and len(v8) < cap8:
                m8[quarter] = len(v8)
                v8.append(quarter)
        for half in failed16:
            if half not in m16 and len(v16) < cap16:
                m16[half] = len(v16)
                v16.append(half)
        if len(v32) < cap32:
            m32[chunk] = len(v32)
            v32.append(chunk)
    if len(v4) + len(v8) + len(v16) + len(v32) != entries_before:
        dictionary._memo.clear()
    return tuple(symbols)


class LbeCompressor:
    """LBE encoder; dictionary state is passed in per log.

    MORC measures each fill against every active log and then commits it
    to one, so the line's block decomposition is computed once and kept
    in a one-entry cache keyed by the line's content (:meth:`_plan_for`).
    """

    name = "lbe"

    def __init__(self) -> None:
        self._line: Optional[bytes] = None
        self._plan: tuple = ()

    def _plan_for(self, line: bytes) -> Tuple[bytes, tuple]:
        """The validated line and its block plan (:func:`_decompose`),
        from the cache if the previous call saw equal content."""
        if line != self._line:
            line = check_line(line)
            self._plan = _decompose(line)
            self._line = line
        return self._line, self._plan

    def compress(self, line: bytes, dictionary: LbeDictionary,
                 commit: bool = True) -> CompressedLine:
        """Encode ``line`` against ``dictionary``.

        With ``commit=False`` the dictionary is left untouched (the line
        is encoded against a copy); otherwise new entries are applied.
        """
        line, plan = self._plan_for(line)
        target = dictionary if commit else dictionary.copy()
        compressed = CompressedLine(_encode_tree(plan, target))
        if commit:
            # Trial placements go through measure(); committed appends are
            # the stream's real compression attempts.
            compression_event("lbe", line, compressed.size_bits)
        return compressed

    def measure(self, line: bytes, dictionary: LbeDictionary) -> int:
        """Exact encoded size of ``line`` against ``dictionary`` without
        building symbols or touching the dictionary.

        Guaranteed equal to ``compress(line, dictionary,
        commit=False).size_bits``.  Multi-log trial placement calls this
        on every active log for every fill, so it walks the cached block
        plan with membership tests only, behind a content-keyed LRU memo
        per dictionary (cross-line duplication makes repeats common).
        """
        line, plan = self._plan_for(line)
        memo = dictionary._memo
        bits = memo.get(line)
        if bits is not None:
            del memo[line]
            memo[line] = bits  # LRU refresh
            return bits
        bits = _measure_tree(plan, dictionary)
        if len(memo) >= _MEASURE_MEMO_ENTRIES:
            del memo[next(iter(memo))]
        memo[line] = bits
        return bits

    # -- decompression ------------------------------------------------------

    def decompress(self, compressed_lines: Iterable[CompressedLine],
                   upto: Optional[int] = None) -> List[bytes]:
        """Replay a log's symbol streams back into raw cache lines.

        MORC must decompress a log from its beginning to rebuild dictionary
        state; ``upto`` stops after that many entries (inclusive index),
        mirroring the cache stopping at the requested line.
        """
        dictionary = LbeDictionary()
        lines: List[bytes] = []
        for position, compressed in enumerate(compressed_lines):
            lines.append(self._decode_line(compressed, dictionary))
            if upto is not None and position >= upto:
                break
        return lines

    def _decode_line(self, compressed: CompressedLine,
                     dictionary: LbeDictionary) -> bytes:
        """Decode one line, replaying dictionary updates exactly."""
        stream = iter(compressed.symbols)
        pieces: List[bytes] = []
        for _ in range(LINE_SIZE // CHUNK_BYTES):
            failed: List[bytes] = []
            chunk = self._decode_block(CHUNK_BYTES, stream, dictionary, failed)
            for block in failed:
                dictionary.insert(block)
            pieces.append(chunk)
        if next(stream, None) is not None:
            raise CorruptBitstreamError(
                "trailing symbols after full line", codec="lbe")
        return b"".join(pieces)

    def _decode_block(self, size: int, stream, dictionary: LbeDictionary,
                      failed: List[bytes]) -> bytes:
        """Decode one aligned block, mirroring the encoder's recursion."""
        symbol = next(stream, None)
        if symbol is None:
            raise CorruptBitstreamError(
                "symbol stream ended mid-line", codec="lbe")
        if symbol.data_bytes == size:
            if symbol.kind.startswith("z"):
                return bytes(size)
            if symbol.kind.startswith("m"):
                return dictionary.value_at(size, symbol.index)
            # literal 32-bit word (only legal at size 4)
            if size != 4:
                raise CorruptBitstreamError(
                    f"literal symbol where a {size}-byte block was "
                    f"expected", codec="lbe")
            block = symbol.value.to_bytes(4, "big")
            dictionary.insert(block)
            return block
        if symbol.data_bytes > size or size == 4:
            raise CorruptBitstreamError(
                f"{symbol.kind} cannot start a {size}-byte block",
                codec="lbe")
        # The encoder decomposed this block: push the symbol back by
        # decoding the halves with a chained iterator.
        chained = _chain_first(symbol, stream)
        half = size // 2
        left = self._decode_block(half, chained, dictionary, failed)
        right = self._decode_block(half, chained, dictionary, failed)
        block = left + right
        failed.append(block)
        return block

    # -- exact bit-stream serialisation (round-trip/property tests) --------

    @staticmethod
    def to_bitstream(compressed: CompressedLine) -> BitWriter:
        """Serialise a symbol stream to its exact bit encoding."""
        writer = BitWriter()
        for symbol in compressed.symbols:
            prefix, width = PREFIX_CODES[symbol.kind]
            writer.write(prefix, width)
            if symbol.kind.startswith("m"):
                writer.write(symbol.index, POINTER_BITS[symbol.data_bytes])
            elif symbol.kind.startswith("u"):
                writer.write(symbol.value, _LITERAL_BITS[symbol.kind])
        return writer

    @staticmethod
    def from_bitstream(reader: BitReader) -> CompressedLine:
        """Parse one line's worth (64 bytes) of symbols from a bit stream."""
        symbols: List[Symbol] = []
        produced = 0
        while produced < LINE_SIZE:
            kind = _read_prefix(reader)
            if kind.startswith("m"):
                size = _SIZE_FOR_KIND[kind]
                symbols.append(Symbol(kind, index=reader.read(POINTER_BITS[size])))
            elif kind.startswith("u"):
                symbols.append(Symbol(kind, value=reader.read(_LITERAL_BITS[kind])))
            else:
                symbols.append(Symbol(kind))
            produced += symbols[-1].data_bytes
        if produced != LINE_SIZE:
            raise CorruptBitstreamError(
                "symbol stream overruns the line boundary", codec="lbe",
                offset=reader.position)
        return CompressedLine(tuple(symbols))


class _chain_first:
    """Iterator yielding one pushed-back item, then the rest of a stream."""

    __slots__ = ("_first", "_stream")

    def __init__(self, first, stream) -> None:
        self._first = first
        self._stream = stream

    def __iter__(self):
        return self

    def __next__(self):
        if self._first is not None:
            item, self._first = self._first, None
            return item
        return next(self._stream)


_MAX_PREFIX_BITS = max(width for _, width in PREFIX_CODES.values())

#: 5-bit-window decode table: Table 3's codes are prefix-free and cover
#: the whole space, so every 5-bit pattern starts with exactly one code
_PREFIX_LOOKUP: List[Tuple[str, int]] = [("", 0)] * (1 << _MAX_PREFIX_BITS)
for _kind, (_prefix, _width) in PREFIX_CODES.items():
    for _suffix in range(1 << (_MAX_PREFIX_BITS - _width)):
        _PREFIX_LOOKUP[(_prefix << (_MAX_PREFIX_BITS - _width))
                       | _suffix] = (_kind, _width)
del _kind, _prefix, _width, _suffix


def _read_prefix(reader: BitReader) -> str:
    """Match the next bits against Table 3's prefix codes.

    ``peek`` pads a short tail with zeros on the right; padding only
    touches bits beyond the code returned by the table, so the lookup is
    exact whenever the stream still holds a whole code.
    """
    kind, width = _PREFIX_LOOKUP[reader.peek(_MAX_PREFIX_BITS)]
    if width > reader.remaining:
        raise CorruptBitstreamError(
            "truncated LBE prefix code", codec="lbe",
            offset=reader.position)
    reader.read(width)
    return kind
