"""Trace file I/O.

Lets users persist synthetic traces or bring their own (e.g. converted
pin traces).  The format is a simple self-describing binary container:

- header: magic ``b"MORCTRC1"``, record count (u64 LE)
- per record: address (u64), flags (u8: bit0 = is_write), gap (u32),
  64 bytes of line data

Files are optionally gzip-compressed (by file extension ``.gz``).
A :class:`FileTrace` replays a stored trace through the same interface
as :class:`repro.workloads.trace.SyntheticTrace`.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, List, Union

from repro.common.errors import TraceError
from repro.common.words import LINE_SIZE
from repro.workloads.trace import TraceRecord

MAGIC = b"MORCTRC1"
_HEADER = struct.Struct("<8sQ")
_RECORD = struct.Struct("<QBI")

_MAX_ADDRESS = 2 ** 64 - 1
_MAX_GAP = 2 ** 32 - 1
_KNOWN_FLAGS = 0x01  # bit0 = is_write; the rest are reserved

PathLike = Union[str, Path]


def _open(path: PathLike, mode: str) -> BinaryIO:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode)


def write_trace(path: PathLike, records: Iterable[TraceRecord]) -> int:
    """Write records to ``path``; returns the record count.

    The record count in the header requires a second pass, so records
    are buffered through memory — traces at simulation scale are a few
    MB.
    """
    buffered: List[TraceRecord] = list(records)
    with _open(path, "wb") as stream:
        stream.write(_HEADER.pack(MAGIC, len(buffered)))
        for index, record in enumerate(buffered):
            _check_record(record, index)
            flags = 1 if record.is_write else 0
            stream.write(_RECORD.pack(record.address, flags, record.gap))
            stream.write(record.data)
    return len(buffered)


def _check_record(record: TraceRecord, index: int) -> None:
    """Validate one record against the on-disk field widths."""
    if not isinstance(record.data, (bytes, bytearray)):
        raise TraceError(
            f"record {index}: data is {type(record.data).__name__}, "
            f"expected bytes")
    if len(record.data) != LINE_SIZE:
        raise TraceError(
            f"record {index}: data is {len(record.data)} bytes, "
            f"expected one full {LINE_SIZE}-byte line")
    if not 0 <= record.address <= _MAX_ADDRESS:
        raise TraceError(
            f"record {index}: address {record.address:#x} does not fit "
            f"an unsigned 64-bit field")
    if not 0 <= record.gap <= _MAX_GAP:
        raise TraceError(
            f"record {index}: gap {record.gap} does not fit an "
            f"unsigned 32-bit field")


def read_trace(path: PathLike) -> List[TraceRecord]:
    """Load a whole trace file into memory."""
    return list(iter_trace(path))


def iter_trace(path: PathLike) -> Iterator[TraceRecord]:
    """Stream records from a trace file.

    Decode failures — truncation, a corrupt gzip stream, reserved flag
    bits — raise :class:`TraceError` naming the failing record, never a
    bare ``struct.error``/``EOFError``/``BadGzipFile``.
    """
    with _open(path, "rb") as stream:
        header = _read_exact(stream, _HEADER.size, "trace header")
        magic, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TraceError(f"not a MORC trace file: magic={magic!r}")
        for index in range(count):
            fixed = _read_exact(stream, _RECORD.size, f"record {index}")
            data = _read_exact(stream, LINE_SIZE,
                               f"record {index} line data")
            address, flags, gap = _RECORD.unpack(fixed)
            if flags & ~_KNOWN_FLAGS:
                raise TraceError(
                    f"record {index}: unknown flag bits {flags:#04x} "
                    f"(known mask {_KNOWN_FLAGS:#04x})")
            yield TraceRecord(address=address, is_write=bool(flags & 1),
                              gap=gap, data=data)


def _read_exact(stream: BinaryIO, size: int, what: str) -> bytes:
    """Read exactly ``size`` bytes or raise a TraceError naming ``what``.

    gzip raises ``BadGzipFile``/``EOFError`` on a corrupt or cut-short
    compressed stream; both surface here as a truncation of ``what``.
    """
    try:
        chunk = stream.read(size)
    except (gzip.BadGzipFile, zlib.error, EOFError, OSError) as error:
        raise TraceError(f"corrupt trace stream while reading {what}: "
                         f"{error}") from error
    if len(chunk) != size:
        raise TraceError(f"truncated {what}: wanted {size} bytes, "
                         f"got {len(chunk)}")
    return chunk


class FileTrace:
    """A stored trace usable wherever a SyntheticTrace is."""

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        with _open(self.path, "rb") as stream:
            header = _read_exact(stream, _HEADER.size, "trace header")
            magic, count = _HEADER.unpack(header)
            if magic != MAGIC:
                raise TraceError(f"not a MORC trace file: {self.path}")
            self.n_records = count
        self.name = self.path.stem

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter_trace(self.path)


def roundtrip_equal(a: Iterable[TraceRecord],
                    b: Iterable[TraceRecord]) -> bool:
    """True if two traces are identical record-for-record (test helper)."""
    sentinel = object()
    from itertools import zip_longest
    for left, right in zip_longest(a, b, fillvalue=sentinel):
        if left is sentinel or right is sentinel or left != right:
            return False
    return True
