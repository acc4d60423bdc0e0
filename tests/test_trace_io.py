"""Tests for trace file I/O."""

import pytest

from repro.common.errors import TraceError
from repro.workloads.io import (
    FileTrace,
    iter_trace,
    read_trace,
    roundtrip_equal,
    write_trace,
)
from repro.workloads.spec import make_trace
from repro.workloads.trace import TraceRecord


@pytest.fixture
def small_trace():
    return list(make_trace("gcc", 3_000))


class TestRoundtrip:
    def test_plain_file(self, tmp_path, small_trace):
        path = tmp_path / "gcc.trc"
        count = write_trace(path, small_trace)
        assert count == len(small_trace)
        assert read_trace(path) == small_trace

    def test_gzip_file(self, tmp_path, small_trace):
        path = tmp_path / "gcc.trc.gz"
        write_trace(path, small_trace)
        assert read_trace(path) == small_trace

    def test_gzip_smaller_than_plain(self, tmp_path, small_trace):
        plain = tmp_path / "t.trc"
        packed = tmp_path / "t.trc.gz"
        write_trace(plain, small_trace)
        write_trace(packed, small_trace)
        assert packed.stat().st_size < plain.stat().st_size

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trc"
        assert write_trace(path, []) == 0
        assert read_trace(path) == []

    def test_roundtrip_equal_helper(self, tmp_path, small_trace):
        path = tmp_path / "t.trc"
        write_trace(path, small_trace)
        assert roundtrip_equal(small_trace, iter_trace(path))
        assert not roundtrip_equal(small_trace[:-1], iter_trace(path))


class TestFileTrace:
    def test_replays_like_synthetic(self, tmp_path, small_trace):
        path = tmp_path / "gcc.trc"
        write_trace(path, small_trace)
        trace = FileTrace(path)
        assert trace.n_records == len(small_trace)
        assert list(trace) == small_trace
        assert list(trace) == small_trace  # restartable

    def test_drives_a_simulation(self, tmp_path, small_trace):
        from repro.common.config import SystemConfig
        from repro.mem.controller import MemoryChannel
        from repro.sim.core import CoreSimulator
        from repro.sim.system import make_llc
        path = tmp_path / "gcc.trc"
        write_trace(path, small_trace)
        config = SystemConfig()
        core = CoreSimulator(make_llc("MORC", config),
                             MemoryChannel(config.memory), config)
        metrics = core.run(FileTrace(path))
        assert metrics.instructions > 0

    def test_name_from_stem(self, tmp_path, small_trace):
        path = tmp_path / "mybench.trc"
        write_trace(path, small_trace)
        assert FileTrace(path).name == "mybench"


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_bytes(b"NOTATRACE" + bytes(16))
        with pytest.raises(TraceError):
            read_trace(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.trc"
        path.write_bytes(b"MO")
        with pytest.raises(TraceError):
            read_trace(path)

    def test_truncated_record(self, tmp_path, small_trace):
        path = tmp_path / "cut.trc"
        write_trace(path, small_trace)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(TraceError):
            read_trace(path)

    def test_wrong_line_size_rejected(self, tmp_path):
        record = TraceRecord(address=0, is_write=False, gap=0,
                             data=b"short")
        with pytest.raises(TraceError):
            write_trace(tmp_path / "x.trc", [record])


class TestMalformedRecords:
    """Hardened I/O: every failure names the record and the field."""

    def _one_good(self):
        return TraceRecord(address=0x40, is_write=False, gap=1,
                           data=bytes(64))

    def test_write_names_record_and_field(self, tmp_path):
        bad = TraceRecord(address=0x80, is_write=True, gap=2,
                          data=bytes(63))
        with pytest.raises(TraceError, match=r"record 1: data is 63"):
            write_trace(tmp_path / "x.trc", [self._one_good(), bad])

    def test_write_rejects_oversized_address(self, tmp_path):
        bad = TraceRecord(address=2 ** 64, is_write=False, gap=0,
                          data=bytes(64))
        with pytest.raises(TraceError, match=r"record 0: address"):
            write_trace(tmp_path / "x.trc", [bad])

    def test_write_rejects_negative_address(self, tmp_path):
        bad = TraceRecord(address=-1, is_write=False, gap=0,
                          data=bytes(64))
        with pytest.raises(TraceError, match=r"record 0: address"):
            write_trace(tmp_path / "x.trc", [bad])

    def test_write_rejects_oversized_gap(self, tmp_path):
        bad = TraceRecord(address=0, is_write=False, gap=2 ** 32,
                          data=bytes(64))
        with pytest.raises(TraceError, match=r"record 0: gap"):
            write_trace(tmp_path / "x.trc", [bad])

    def test_write_rejects_non_bytes_data(self, tmp_path):
        bad = TraceRecord(address=0, is_write=False, gap=0,
                          data="x" * 64)  # type: ignore[arg-type]
        with pytest.raises(TraceError, match=r"record 0: data is str"):
            write_trace(tmp_path / "x.trc", [bad])

    def test_read_rejects_unknown_flag_bits(self, tmp_path):
        path = tmp_path / "flags.trc"
        write_trace(path, [self._one_good()])
        raw = bytearray(path.read_bytes())
        raw[16 + 8] |= 0x40  # header is 16 bytes; flags follow address
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceError,
                           match=r"record 0: unknown flag bits"):
            read_trace(path)

    def test_truncated_record_names_index(self, tmp_path):
        path = tmp_path / "cut.trc"
        write_trace(path, [self._one_good(), self._one_good()])
        path.write_bytes(path.read_bytes()[:-32])
        with pytest.raises(TraceError, match=r"record 1"):
            read_trace(path)

    def test_corrupt_gzip_payload_raises_trace_error(self, tmp_path):
        path = tmp_path / "t.trc.gz"
        write_trace(path, [self._one_good()] * 4)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # clobber the deflate stream
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceError):
            read_trace(path)

    def test_truncated_gzip_stream_raises_trace_error(self, tmp_path):
        path = tmp_path / "t.trc.gz"
        write_trace(path, [self._one_good()] * 8)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])  # cut mid-deflate-stream
        with pytest.raises(TraceError):
            read_trace(path)
