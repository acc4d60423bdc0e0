"""Opt-in self-verification: round-trip checks and invariant audits.

Enabled by ``REPRO_VERIFY=1``.  Two mechanisms:

- **Round-trip verification on insert** — every committed compression is
  immediately decompressed and compared against the source line.  For
  LBE the caller snapshots the log dictionary *before* the commit, which
  builds no symbols; the check encodes the line against the snapshot,
  holds the stream's size and per-kind bytes to the commit's, decodes
  it (replaying against pre-append state) and also serialises the
  symbols to their exact bitstream and parses them back.  MORC-LZ's
  committed line is decoded against the log's pre-append history
  bytes.  Intra-line codecs go through
  :meth:`~repro.compression.base.IntraLineCompressor.roundtrip`; codecs
  that only model sizes (SC2) are skipped.
- **Invariant audits** — :func:`audit` walks a cache's structures and
  collects every broken invariant: bits accounting, occupancy vs
  capacity, LMT↔log cross-references, the count of reusable closed
  logs and which logs hold codec state for MORC, segment/tag budgets
  for the set-associative baselines.
  The system simulator runs it at every ratio-sample point.

Failures raise :class:`repro.common.errors.VerificationError` and emit
``verify_fail`` events on the ``resilience`` trace category.  All checks
are read-only: they never mutate cache state, so a verified run's
figure/table outputs are bit-identical to an unverified one.
"""

from __future__ import annotations

from typing import List

from repro import settings
from repro.common.errors import VerificationError
from repro.obs import trace as obs_trace


def verification_enabled() -> bool:
    """True when ``REPRO_VERIFY`` checks should run."""
    return settings.current().verify


def _fail(subject: str, violations: List[str], kind: str) -> None:
    channel = obs_trace.RESILIENCE
    if channel is not None:
        for violation in violations:
            channel.emit("verify_fail", cache=subject, kind=kind,
                         detail=violation)
    raise VerificationError(subject, violations)


# -- round-trip verification on insert -----------------------------------


def verify_lbe_commit(compressor, data: bytes, snapshot, state,
                      bits: int, usage, cache: str) -> None:
    """Check a committed LBE append against the symbol encoder.

    The commit walks the line without building symbols, so the check
    encodes it with ``compress`` against ``snapshot``, the log
    dictionary copied *before* the commit: the stream's size and its
    bytes per symbol kind (key order included) must equal the commit's
    ``bits`` and ``usage``.  The stream is then decoded against
    ``snapshot``, which replays the dictionary updates exactly as a log
    replay from this entry's predecessor state would: it must give back
    ``data`` and leave the dictionary where the commit left ``state``.
    Last, the stream is serialised to its exact bit encoding and parsed
    back, which exercises the hardened bitstream path.
    """
    from repro.common.bitio import BitReader

    violations: List[str] = []
    compressed = compressor.compress(data, snapshot, commit=False)
    if compressed.size_bits != bits:
        violations.append(f"LBE commit sized the line at {bits} bits, "
                          f"its symbol stream at {compressed.size_bits}")
    if list(compressed.kind_bytes().items()) != list(usage.items()):
        violations.append(f"LBE commit counted {usage} bytes per symbol "
                          f"kind, its symbol stream "
                          f"{compressed.kind_bytes()}")
    decoded = compressor._decode_line(compressed, snapshot)
    if decoded != data:
        violations.append(_mismatch("LBE", decoded, data))
    if snapshot._values != state._values:
        violations.append("LBE commit left the log dictionary other than "
                          "its symbol stream's decode does")
    writer = compressor.to_bitstream(compressed)
    reparsed = compressor.from_bitstream(
        BitReader.from_writer(writer, strict=True))
    if reparsed.symbols != compressed.symbols:
        violations.append("LBE bitstream reparse produced different "
                          "symbols")
    if violations:
        _fail(cache, violations, kind="roundtrip")


def verify_lz_roundtrip(compressor, data: bytes, history: bytes,
                        compressed, cache: str) -> None:
    """Check a committed LZ append decodes back to ``data``.

    ``history`` is the log's uncompressed byte stream copied *before*
    the committing ``compress`` call, which the line's matches may
    reach into.
    """
    decoded = compressor.decode_line(compressed, history)
    if decoded != data:
        _fail(cache, [_mismatch("LZ", decoded, data)], kind="roundtrip")


def _mismatch(codec: str, decoded: bytes, data: bytes) -> str:
    diff_at = next((i for i in range(min(len(decoded), len(data)))
                    if decoded[i] != data[i]), len(decoded))
    return (f"{codec} round-trip mismatch: {len(decoded)} bytes decoded, "
            f"first diff at byte {diff_at}")


def verify_intraline_roundtrip(compressor, data: bytes,
                               cache: str) -> None:
    """Check an intra-line codec reproduces ``data`` exactly.

    Codecs that only model encoded sizes (SC2's adapter) raise
    ``NotImplementedError`` from ``compress_tokens`` and are skipped.
    """
    try:
        decoded = compressor.roundtrip(data)
    except NotImplementedError:
        return
    if decoded != data:
        _fail(cache, [f"{getattr(compressor, 'name', '?')} round-trip "
                      f"mismatch for line of {len(data)} bytes"],
              kind="roundtrip")


# -- invariant audits -----------------------------------------------------


def audit(llc) -> None:
    """Audit a cache's internal invariants; raise on any violation.

    Dispatches on structure (duck typing keeps this free of import
    cycles): MORC exposes ``logs``/``lmt``, the set-associative family
    ``_sets``/``segments_per_set``.  Unknown caches are ignored.
    """
    if hasattr(llc, "logs") and hasattr(llc, "lmt"):
        violations = _audit_morc(llc)
    elif hasattr(llc, "_sets") and hasattr(llc, "segments_per_set"):
        violations = _audit_set_assoc(llc)
    else:
        return
    if violations:
        _fail(llc.name, violations, kind="invariant")


def _audit_morc(llc) -> List[str]:
    violations: List[str] = []
    for log in llc.logs:
        violations.extend(log.audit())
    violations.extend(llc.lmt.audit())
    # Cross-references: every valid log entry is tracked by exactly the
    # LMT entry it back-points to, and vice versa.
    tracked = 0
    for log in llc.logs:
        for entry in log.entries:
            if not entry.valid:
                continue
            tracked += 1
            lmt_entry = entry.lmt_ref
            if lmt_entry is None:
                violations.append(
                    f"log {log.index}: valid entry for line "
                    f"0x{entry.line_address:x} has no LMT back-pointer")
                continue
            if lmt_entry.entry_ref is not entry:
                violations.append(
                    f"log {log.index}: LMT entry for line "
                    f"0x{entry.line_address:x} points elsewhere")
            if lmt_entry.log_index != log.index:
                violations.append(
                    f"log {log.index}: LMT entry for line "
                    f"0x{entry.line_address:x} records log "
                    f"{lmt_entry.log_index}")
            if not lmt_entry.is_valid:
                violations.append(
                    f"log {log.index}: valid entry for line "
                    f"0x{entry.line_address:x} tracked by an invalid "
                    f"LMT entry")
    # Codec state: each active log holds what its codecs hand out (a
    # codec whose fresh state is None needs none); a closed log (checked
    # by Log.audit) or a never-used one holds neither.
    needs_state = llc._codec.new_state() is not None
    needs_stream = llc._tag_compressor.new_stream() is not None
    for index in llc._active:
        log = llc.logs[index]
        if ((needs_state and log.codec_state is None)
                or (needs_stream and log.tag_stream is None)):
            violations.append(
                f"log {index}: active but lacks its codec state or tag "
                f"stream")
    for index in llc._free_pool:
        log = llc.logs[index]
        if log.codec_state is not None or log.tag_stream is not None:
            violations.append(
                f"log {index}: never used but holds codec state or a tag "
                f"stream")
    dead_closed = sum(1 for index in llc._closed_fifo
                      if llc.logs[index].all_invalid)
    if dead_closed != llc._dead_closed:
        violations.append(
            f"{dead_closed} closed logs hold only dead lines but the "
            f"cache counts {llc._dead_closed}")
    lmt_valid = llc.lmt.valid_count()
    if lmt_valid != tracked:
        violations.append(
            f"LMT holds {lmt_valid} valid entries but logs hold "
            f"{tracked} valid lines")
    # Occupancy: valid resident lines can never exceed what the physical
    # capacity could hold at the maximum modelled compression.
    valid_lines = sum(log.valid_count for log in llc.logs)
    if valid_lines > llc.lmt.n_entries and not llc.lmt.unlimited:
        violations.append(
            f"{valid_lines} resident lines exceed the LMT's "
            f"{llc.lmt.n_entries} entries")
    return violations


def _audit_set_assoc(llc) -> List[str]:
    violations: List[str] = []
    full_segments = llc.geometry.line_size // 8  # SEGMENT_BYTES
    for index, cache_set in enumerate(llc._sets):
        actual = sum(line.segments for line in cache_set.lines.values())
        if actual != cache_set.used_segments:
            violations.append(
                f"set {index}: used_segments={cache_set.used_segments} "
                f"but lines sum to {actual}")
        if cache_set.used_segments > llc.segments_per_set:
            violations.append(
                f"set {index}: {cache_set.used_segments} segments "
                f"exceed the set budget of {llc.segments_per_set}")
        if len(cache_set.lines) > llc.tags_per_set:
            violations.append(
                f"set {index}: {len(cache_set.lines)} lines exceed "
                f"{llc.tags_per_set} tags")
        # ``lines`` is the tag array and the LRU order at once: each
        # entry must be keyed by its own line, indexed to this set.
        for key, line in cache_set.lines.items():
            if key != line.address:
                violations.append(
                    f"set {index}: tag 0x{key:x} holds line "
                    f"0x{line.address:x}")
            if line.address % llc._n_sets != index:
                violations.append(
                    f"set {index}: line 0x{line.address:x} belongs to "
                    f"set {line.address % llc._n_sets}")
            if not 0 < line.segments <= full_segments:
                violations.append(
                    f"set {index}: line 0x{line.address:x} holds "
                    f"{line.segments} segments")
    return violations
