"""Base-delta tag compression with DEFLATE-style distance coding.

The paper's §3.2.4 and Table 2: because MORC appends cache lines in
temporal order, consecutive tags are usually nearby addresses, so each tag
is encoded as a *delta* (in units of 64-byte lines) to a tracked base.
The delta is coded like DEFLATE's distance alphabet:

====== ================ ===============
codes   distance (64B)   precision bits
====== ================ ===============
0-3     1-4              0
4-5     5-8              1
6-7     9-16             2
...     ...              ...
26-27   8193-16384       12
28-29   16385-32768      13
30-31   new base         0
====== ================ ===============

Each encoded tag additionally carries (paper's modifications):

- one validity bit (so later invalidation needs no re-encoding),
- one sign bit for the delta direction,
- one base-selection bit in the 2-base variant (§4 default).

Deltas beyond 2 MB (32768 lines) — or a repeat of the same address — emit
a "new base": the full line address.  New bases replace the
least-recently-used tracked base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.config import PHYSICAL_ADDRESS_BITS
from repro.common.errors import CompressionError

CODE_BITS = 5
VALID_BITS = 1
SIGN_BITS = 1
NEW_BASE_CODE = 30
MAX_DISTANCE = 32768
LINE_OFFSET_BITS = 6  # 64-byte lines
FULL_TAG_BITS = PHYSICAL_ADDRESS_BITS - LINE_OFFSET_BITS


def _build_distance_table() -> List[Tuple[int, int]]:
    """Return ``[(first_distance, precision_bits)]`` for codes 0-29."""
    table: List[Tuple[int, int]] = []
    for code in range(4):
        table.append((code + 1, 0))
    distance = 5
    for code in range(4, 30):
        extra = code // 2 - 1
        table.append((distance, extra))
        distance += 1 << extra
    return table


DISTANCE_TABLE = _build_distance_table()


def distance_code(distance: int) -> Tuple[int, int, int]:
    """Map a distance (>=1) to ``(code, precision_bits, precision_value)``.

    Codes 0-3 are distances 1-4; above that each pair of codes splits
    the range ``2^(k+1)+1 .. 2^(k+2)`` whose precision is ``k`` bits, so
    the row follows from the bit length of ``distance - 1``.
    """
    if distance < 1 or distance > MAX_DISTANCE:
        raise CompressionError(f"distance {distance} is not delta-codable")
    offset = distance - 1
    extra = offset.bit_length() - 2
    if extra <= 0:
        return offset, 0, 0
    return (2 * extra + 2 + ((offset >> extra) & 1), extra,
            offset & ((1 << extra) - 1))


def decode_distance(code: int, precision_value: int) -> int:
    """Inverse of :func:`distance_code`."""
    if not 0 <= code < 30:
        raise CompressionError(f"invalid distance code {code}")
    first, extra = DISTANCE_TABLE[code]
    if precision_value >= (1 << extra):
        raise CompressionError("precision value out of range")
    return first + precision_value


@dataclass(frozen=True)
class TagToken:
    """One encoded tag: either a delta or a new base."""

    kind: str  # "delta" | "new_base"
    base_slot: int
    size_bits: int
    code: int = NEW_BASE_CODE
    sign: int = 0
    precision_value: int = 0
    line_address: int = 0


@dataclass
class TagStream:
    """Per-log tag compression state: tracked bases in LRU order."""

    n_bases: int = 2
    bases: List[Optional[int]] = field(default_factory=list)
    lru: List[int] = field(default_factory=list)
    total_bits: int = 0
    n_tags: int = 0

    def __post_init__(self) -> None:
        if self.n_bases not in (1, 2):
            raise CompressionError("tag compression supports 1 or 2 bases")
        if not self.bases:
            self.bases = [None] * self.n_bases
            self.lru = list(range(self.n_bases))


class TagCompressor:
    """Appends line-address tags to a per-log compressed stream."""

    def __init__(self, n_bases: int = 2) -> None:
        if n_bases not in (1, 2):
            raise CompressionError("tag compression supports 1 or 2 bases")
        self.n_bases = n_bases

    @property
    def entry_overhead_bits(self) -> int:
        """Fixed bits on every entry: validity + base-select (if 2 bases)."""
        return VALID_BITS + (1 if self.n_bases == 2 else 0)

    def new_stream(self) -> TagStream:
        """Start a fresh per-log stream."""
        return TagStream(n_bases=self.n_bases)

    def append(self, stream: TagStream, line_address: int) -> TagToken:
        """Encode ``line_address`` (address // 64) onto ``stream``."""
        if line_address < 0:
            raise CompressionError("line address must be non-negative")
        best: Optional[TagToken] = None
        for slot, base in enumerate(stream.bases):
            if base is None:
                continue
            delta = line_address - base
            if delta == 0 or abs(delta) > MAX_DISTANCE:
                continue
            code, extra, value = distance_code(abs(delta))
            size = self.entry_overhead_bits + CODE_BITS + SIGN_BITS + extra
            token = TagToken("delta", slot, size, code=code,
                             sign=1 if delta < 0 else 0,
                             precision_value=value)
            if best is None or token.size_bits < best.size_bits:
                best = token
        if best is None:
            slot = stream.lru[0]  # least recently used
            size = self.entry_overhead_bits + CODE_BITS + FULL_TAG_BITS
            best = TagToken("new_base", slot, size, line_address=line_address)
        self._apply(stream, best, line_address)
        stream.total_bits += best.size_bits
        stream.n_tags += 1
        return best

    @staticmethod
    def _apply(stream: TagStream, token: TagToken, line_address: int) -> None:
        stream.bases[token.base_slot] = line_address
        stream.lru.remove(token.base_slot)
        stream.lru.append(token.base_slot)

    def measure(self, stream: TagStream, line_address: int) -> int:
        """Encoded size in bits without mutating ``stream``."""
        extra = None
        for base in stream.bases:
            if base is None:
                continue
            distance = abs(line_address - base)
            if distance == 0 or distance > MAX_DISTANCE:
                continue
            # precision bits of distance_code(distance), in O(1)
            bits = max(0, (distance - 1).bit_length() - 2)
            if extra is None or bits < extra:
                extra = bits
        if extra is None:
            return self.entry_overhead_bits + CODE_BITS + FULL_TAG_BITS
        return self.entry_overhead_bits + CODE_BITS + SIGN_BITS + extra

    def decode(self, tokens: List[TagToken]) -> List[int]:
        """Replay a token stream back into the appended line addresses."""
        stream = self.new_stream()
        addresses: List[int] = []
        for token in tokens:
            if token.kind == "new_base":
                address = token.line_address
            else:
                base = stream.bases[token.base_slot]
                if base is None:
                    raise CompressionError("delta against an unset base")
                distance = decode_distance(token.code, token.precision_value)
                address = base - distance if token.sign else base + distance
            self._apply(stream, token, address)
            addresses.append(address)
        return addresses
