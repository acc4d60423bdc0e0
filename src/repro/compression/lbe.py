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

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.bitio import BitReader, BitWriter
from repro.common.errors import CorruptBitstreamError
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

#: dictionary capacities, one name per granularity, for the walks
_CAP4, _CAP8, _CAP16, _CAP32 = (DICT_CAPACITY[4], DICT_CAPACITY[8],
                                DICT_CAPACITY[16], DICT_CAPACITY[32])

#: a limit no line reaches: an encoding is at most 16 u32 literals
_NO_LIMIT = 1 << 30

#: the pending entries of a size no block of the line has failed at yet
_NOTHING_PENDING = frozenset()


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
    def size_bits(self) -> int:
        """Exact encoded width: prefix + pointer or literal payload."""
        return _SYMBOL_BITS[self.kind]


class LbeDictionary:
    """Per-log dictionary state for all four granularities.

    Each granularity maps block value -> entry index and freezes once its
    capacity is reached (the C-Pack discipline the paper builds on).
    """

    __slots__ = ("_maps", "_values", "_tables")

    def __init__(self) -> None:
        self._maps: Dict[int, Dict[bytes, int]] = {g: {} for g in DICT_CAPACITY}
        self._values: Dict[int, List[bytes]] = {g: [] for g in DICT_CAPACITY}
        self._alias_tables()

    def _alias_tables(self) -> None:
        """The walks' view of the four tables: the 4/8/16/32-byte maps,
        then the same four value lists (the same objects, not copies)."""
        maps, values = self._maps, self._values
        self._tables = (maps[4], maps[8], maps[16], maps[32],
                        values[4], values[8], values[16], values[32])

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
        return True

    def entry_count(self, size: int) -> int:
        """Number of entries currently held at one granularity."""
        return len(self._values[size])

    def copy(self) -> "LbeDictionary":
        """Deep-enough copy used for trial compression."""
        clone = LbeDictionary.__new__(LbeDictionary)
        clone._maps = {g: dict(m) for g, m in self._maps.items()}
        clone._values = {g: list(v) for g, v in self._values.items()}
        clone._alias_tables()
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

    def kind_bytes(self) -> Dict[str, int]:
        """Uncompressed bytes the stream represents per symbol kind
        (Figure 7), keyed in order of first appearance."""
        usage: Dict[str, int] = {}
        for symbol in self.symbols:
            kind = symbol.kind
            usage[kind] = usage.get(kind, 0) + _SIZE_FOR_KIND[kind]
        return usage


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

#: the plan's node for an all-zero 256/128-bit block and for an
#: all-zero 64-bit block, shared by every plan
_ZERO_BLOCK = (None, ())
_ZERO_QUARTER = (None, None, 0, None, 0)

#: the smallest encoding of a 256-bit chunk in any dictionary: ``z256``
#: for an all-zero chunk, else ``m256`` (any split costs more: its best
#: case is a ``z128`` and an ``m128``)
_ZERO_CHUNK_FLOOR = _SYMBOL_BITS["z256"]
_CHUNK_FLOOR = _SYMBOL_BITS["m256"]


def _quarter_node(quarter: bytes) -> tuple:
    """A non-zero 64-bit block's plan node, its two words inline."""
    high, low = quarter[:4], quarter[4:]
    if high == _Z4:
        return (quarter, None, 0, low,
                _U32_BITS if low[0] or low[1] else
                _U16_BITS if low[2] else _U8_BITS)
    high_bits = (_U32_BITS if high[0] or high[1] else
                 _U16_BITS if high[2] else _U8_BITS)
    if low == _Z4:
        return (quarter, high, high_bits, None, 0)
    return (quarter, high, high_bits, low,
            _U32_BITS if low[0] or low[1] else
            _U16_BITS if low[2] else _U8_BITS)


def _half_node(half: bytes) -> tuple:
    """A 128-bit block's plan node."""
    if half == _Z16:
        return _ZERO_BLOCK
    low, high = half[:8], half[8:]
    return (half, (_ZERO_QUARTER if low == _Z8 else _quarter_node(low),
                   _ZERO_QUARTER if high == _Z8 else _quarter_node(high)))


def _decompose(line: bytes) -> tuple:
    """Split a line into LBE's aligned 32/16/8/4-byte blocks, once.

    This is the line's plan, walked by every trial and by the commit.
    The 256- and 128-bit levels are tuples of ``(block, children)``
    pairs in encoding order; a 64-bit block's node is ``(block, high
    word, its width, low word, its width)``, a word's width being that
    of the literal symbol it needs when nothing matches it
    (significance compression: ``u8``/``u16`` when its upper bytes are
    zero, else ``u32``).  An all-zero block or word, which encodes as
    its z* symbol and is never split, is recorded as ``None`` (a zero
    word with width 0).  Zero nodes are shared by every plan.
    """
    first, second = line[:32], line[32:]
    return (
        _ZERO_BLOCK if first == _Z32 else
        (first, (_half_node(first[:16]), _half_node(first[16:]))),
        _ZERO_BLOCK if second == _Z32 else
        (second, (_half_node(second[:16]), _half_node(second[16:]))))


def _plan_floor(tree: tuple) -> int:
    """A lower bound on the plan's encoded size in any dictionary: each
    chunk's smallest encoding."""
    floor = 0
    for chunk, _ in tree:
        floor += _ZERO_CHUNK_FLOOR if chunk is None else _CHUNK_FLOOR
    return floor


def _measure_tree(tree: tuple, dictionary: LbeDictionary,
                  limit: int = _NO_LIMIT) -> Optional[int]:
    """Encoded size of a decomposed line, leaving ``dictionary`` untouched.

    Entries the line would allocate are tracked in local dicts: a literal
    word is allocated at once, while the 64/128/256-bit blocks that
    failed to match are allocated only after their 256-bit chunk (paper
    §3.2.5), in the encoder's post-order, so capacity freezes on exactly
    the block the encoder freezes on.  Every size has its own table, so
    the order across sizes does not matter.  A failed block is in no
    table yet (that is why it failed), and the chunk's own failures are
    kept apart until it ends, so each is allocated once and in order.

    A line is two chunks, so the coarse blocks pending for the second
    chunk are the first chunk's failures, allocated when it ends; until
    then nothing is pending at those sizes, and a walk that stops in the
    first chunk builds no tables for them.

    The running count only grows, so the walk stops and returns None
    once it is over ``limit``; a size it returns is exact and at most
    ``limit``.
    """
    m4, m8, m16, m32, v4, v8, v16, v32 = dictionary._tables
    room4 = _CAP4 - len(v4)
    a4 = {}
    a8 = a16 = a32 = _NOTHING_PENDING
    bits = 0
    # each chunk is its own slice of the line, so identity finds the last
    last = tree[-1][0]
    for chunk, halves in tree:
        if chunk is None:
            bits += 5               # z256
            continue
        if chunk in m32 or chunk in a32:
            bits += 9               # m256
            continue
        failed8 = {}
        failed16 = {}
        for half, quarters in halves:
            if half is None:
                bits += 5           # z128
                continue
            if half in m16 or half in a16:
                bits += 10          # m128
                continue
            for quarter, high, high_bits, low, low_bits in quarters:
                if quarter is None:
                    bits += 4       # z64
                    continue
                if quarter in m8 or quarter in a8:
                    bits += 10      # m64
                    continue
                if high is None:
                    bits += 4       # z32
                elif high in m4 or high in a4:
                    bits += 9       # m32
                else:
                    bits += high_bits
                    if room4:
                        a4[high] = None
                        room4 -= 1
                if low is None:
                    bits += 4
                elif low in m4 or low in a4:
                    bits += 9
                else:
                    bits += low_bits
                    if room4:
                        a4[low] = None
                        room4 -= 1
                if bits > limit:
                    return None
                failed8[quarter] = None
            failed16[half] = None
        if chunk is last:
            break                   # no later chunk can match these
        room = _CAP8 - len(v8)
        a8 = (failed8 if len(failed8) <= room
              else dict.fromkeys(list(failed8)[:room]))
        room = _CAP16 - len(v16)
        a16 = (failed16 if len(failed16) <= room
               else dict.fromkeys(list(failed16)[:room]))
        if len(v32) < _CAP32:
            a32 = {chunk: None}
    return bits if bits <= limit else None


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
            for quarter, high, high_bits, low, low_bits in quarters:
                if quarter is None:
                    emit(zero8)
                    continue
                index = m8.get(quarter)
                if index is not None:
                    emit(match8[index])
                    continue
                for word, literal_bits in ((high, high_bits),
                                           (low, low_bits)):
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
    return tuple(symbols)


def _commit_tree(tree: tuple, dictionary: LbeDictionary) -> Dict[str, int]:
    """Append a decomposed line to ``dictionary`` without building symbols.

    The walk of :func:`_encode_tree`, allocating the same entries in the
    same order, that counts the symbols it would emit per kind instead;
    the counts are keyed in order of first appearance, the stream's.
    A chunk's failed coarse blocks are collected in dicts, which keep
    the first of any repeats in order, as the encoder's membership test
    does (none of them is in a table before the chunk ends).
    """
    m4, m8, m16, m32, v4, v8, v16, v32 = dictionary._tables
    n4, n8, n16, n32 = len(v4), len(v8), len(v16), len(v32)
    literal_kind = _LITERAL_KIND
    counts: Dict[str, int] = defaultdict(int)
    for chunk, halves in tree:
        if chunk is None:
            counts["z256"] += 1
            continue
        if chunk in m32:
            counts["m256"] += 1
            continue
        failed8 = {}
        failed16 = {}
        for half, quarters in halves:
            if half is None:
                counts["z128"] += 1
                continue
            if half in m16:
                counts["m128"] += 1
                continue
            for quarter, high, high_bits, low, low_bits in quarters:
                if quarter is None:
                    counts["z64"] += 1
                    continue
                if quarter in m8:
                    counts["m64"] += 1
                    continue
                if high is None:
                    counts["z32"] += 1
                elif high in m4:
                    counts["m32"] += 1
                else:
                    counts[literal_kind[high_bits]] += 1
                    if n4 < _CAP4:
                        m4[high] = n4
                        v4.append(high)
                        n4 += 1
                if low is None:
                    counts["z32"] += 1
                elif low in m4:
                    counts["m32"] += 1
                else:
                    counts[literal_kind[low_bits]] += 1
                    if n4 < _CAP4:
                        m4[low] = n4
                        v4.append(low)
                        n4 += 1
                failed8[quarter] = None
            failed16[half] = None
        for quarter in failed8:
            if n8 == _CAP8:
                break
            m8[quarter] = n8
            v8.append(quarter)
            n8 += 1
        for half in failed16:
            if n16 == _CAP16:
                break
            m16[half] = n16
            v16.append(half)
            n16 += 1
        if n32 < _CAP32:
            m32[chunk] = n32
            v32.append(chunk)
            n32 += 1
    return counts


class LbeCompressor:
    """LBE encoder; dictionary state is passed in per log.

    MORC measures each fill against every active log and then commits it
    to one, so the line's block decomposition is computed once and kept
    in a one-entry cache keyed by the line's content, with the plan's
    size floor (:meth:`_plan_for`).
    """

    name = "lbe"

    def __init__(self) -> None:
        self._line: Optional[bytes] = None
        self._plan: tuple = ()
        self._floor = 0

    def _plan_for(self, line: bytes) -> Tuple[bytes, tuple]:
        """The validated line and its block plan (:func:`_decompose`),
        from the cache if the previous call saw equal content."""
        if line != self._line:
            line = check_line(line)
            self._plan = _decompose(line)
            self._floor = _plan_floor(self._plan)
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
            # A trial (measure(), or commit=False) is not a compression
            # attempt of the stream; an append is.
            compression_event("lbe", line, compressed.size_bits)
        return compressed

    def commit(self, line: bytes,
               dictionary: LbeDictionary) -> Tuple[int, Dict[str, int]]:
        """Append ``line`` to ``dictionary``'s stream without building
        its symbols.

        Returns the exact encoded size and the bytes each symbol kind
        represents (Figure 7), keyed in stream order: equal to
        ``compress(line, dictionary)``'s ``size_bits`` and
        :meth:`CompressedLine.kind_bytes`, with the same entries
        allocated.  MORC commits every fill this way and keeps no stream.
        """
        if line != self._line:
            self._plan_for(line)
        bits = 0
        usage: Dict[str, int] = {}
        for kind, count in _commit_tree(self._plan, dictionary).items():
            bits += count * _SYMBOL_BITS[kind]
            usage[kind] = count * _SIZE_FOR_KIND[kind]
        compression_event("lbe", self._line, bits)
        return bits, usage

    def measure(self, line: bytes, dictionary: LbeDictionary,
                limit: Optional[int] = None) -> Optional[int]:
        """Exact encoded size of ``line`` against ``dictionary`` without
        building symbols or touching the dictionary, or None when a
        ``limit`` is given and the size is over it.

        A size is guaranteed equal to ``compress(line, dictionary,
        commit=False).size_bits``.  Multi-log trial placement calls this
        on the active logs for every fill, so it walks the cached block
        plan with membership tests only.  With a ``limit`` the walk
        stops once it passes it, and a limit below the plan's floor (its
        chunks' smallest encodings) needs no walk at all.
        """
        if line != self._line:
            self._plan_for(line)
        if limit is None:
            return _measure_tree(self._plan, dictionary)
        if limit < self._floor:
            return None
        return _measure_tree(self._plan, dictionary, limit)

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
