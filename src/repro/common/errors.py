"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError` so
callers can catch library failures without catching unrelated bugs.

:class:`CellError` is not an exception: it is the structured *record* of
a failed experiment-engine cell (see
:mod:`repro.experiments.parallel`), returned in the cell's result slot
when the engine runs with ``on_error="skip"`` so one failing cell
cannot throw away the rest of a grid.
"""

from dataclasses import dataclass


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class CompressionError(ReproError):
    """A compression or decompression stream was malformed."""


class CorruptBitstreamError(CompressionError):
    """A compressed bitstream failed to decode.

    Raised by the hardened decoders (LBE, C-Pack, SC2/Huffman) and
    by :class:`repro.common.bitio.BitReader` instead of a bare
    ``IndexError`` or a garbage decode.  Carries where and why:

    - ``codec`` — which decoder rejected the stream (``None`` for a raw
      bit-level underflow);
    - ``offset`` — bit position at which decoding failed;
    - ``reason`` — human-readable cause (underflow, unrecognised prefix,
      dangling dictionary pointer, ...).
    """

    def __init__(self, reason: str, codec: "str | None" = None,
                 offset: "int | None" = None) -> None:
        self.reason = reason
        self.codec = codec
        self.offset = offset
        where = f" [codec={codec}]" if codec else ""
        at = f" at bit {offset}" if offset is not None else ""
        super().__init__(f"corrupt bitstream{where}{at}: {reason}")


class CacheError(ReproError):
    """A cache operation violated an internal invariant."""


class VerificationError(CacheError):
    """The self-verification layer found a broken invariant or a line
    that failed its decompress-and-compare round-trip (``REPRO_VERIFY``).

    ``violations`` lists every failed check."""

    def __init__(self, subject: str, violations: "list[str]") -> None:
        self.subject = subject
        self.violations = list(violations)
        detail = "; ".join(self.violations) or "unknown violation"
        super().__init__(f"{subject}: verification failed: {detail}")


class TraceError(ReproError):
    """A workload trace was malformed or exhausted unexpectedly."""


@dataclass(frozen=True)
class CellError:
    """Structured record of one failed experiment-engine cell.

    Occupies the failed cell's slot in the grid's result list, so
    callers can tell exactly which (benchmark, scheme) cells failed
    while every other cell's result is intact.  ``exception`` is the
    ``repr`` of the worker's exception (``BrokenProcessPool`` when the
    worker died before returning the cell) and ``traceback`` its
    formatted traceback.
    """

    label: str
    exception: str
    traceback: str

    def summary(self) -> str:
        return f"{self.label}: {self.exception}"


class CellFailedError(ReproError):
    """A grid cell failed (its worker raised or died) under
    ``on_error="raise"``, so the engine aborted the grid.

    Carries the :class:`CellError` record (including the worker-side
    traceback) as ``.cell``.
    """

    def __init__(self, cell: CellError) -> None:
        super().__init__(cell.summary() + "\n" + cell.traceback)
        self.cell = cell
