"""The binary trace format: codecs, round-trips, rejection, salvage.

Covers the varint/zigzag codecs on their edge values, property-based
round-trips Program -> .rtb -> Program, the loader's rejection of every
kind of damaged file (which the check-only scan must flag too), and
salvage of the valid chunk prefix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceError
from repro.trace import (
    BinTraceWriter,
    Program,
    TraceBuilder,
    load_program,
    save_program,
)
from repro.trace.binio import (
    FORMAT_VERSION,
    MAGIC,
    decode_varints,
    encode_varints,
    load_program_bin,
    salvage_rtb,
    save_program_bin,
    scan_rtb,
    zigzag_decode,
    zigzag_encode,
)
from repro.trace.events import EVENT_DTYPE


# ---------------------------------------------------------------- codecs


class TestVarint:
    def test_edge_values(self):
        values = np.array(
            [0, 1, 127, 128, 129, 2**14 - 1, 2**14, 2**32, 2**62 - 1],
            dtype=np.uint64,
        )
        blob = np.frombuffer(encode_varints(values), dtype=np.uint8)
        decoded, consumed = decode_varints(blob, len(values))
        assert consumed == len(blob)
        assert np.array_equal(decoded, values)

    def test_single_byte_values_encode_to_one_byte(self):
        values = np.arange(128, dtype=np.uint64)
        assert len(encode_varints(values)) == 128

    def test_empty(self):
        assert encode_varints(np.zeros(0, dtype=np.uint64)) == b""
        decoded, consumed = decode_varints(np.zeros(0, dtype=np.uint8), 0)
        assert len(decoded) == 0 and consumed == 0

    def test_truncated_stream_rejected(self):
        blob = np.frombuffer(
            encode_varints(np.array([2**40], dtype=np.uint64)), dtype=np.uint8
        )
        with pytest.raises(TraceError):
            decode_varints(blob[:-1], 1)

    @given(
        st.lists(st.integers(0, 2**62 - 1), min_size=0, max_size=200)
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.uint64)
        blob = np.frombuffer(encode_varints(arr), dtype=np.uint8)
        decoded, consumed = decode_varints(blob, len(arr))
        assert consumed == len(blob)
        assert np.array_equal(decoded, arr)


class TestZigzag:
    @given(st.lists(st.integers(-(2**31), 2**31 - 1), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, values):
        arr = np.array(values, dtype=np.int64)
        assert np.array_equal(zigzag_decode(zigzag_encode(arr)), arr)

    def test_small_magnitudes_stay_small(self):
        # zigzag maps -1,1,-2,2 ... to 1,2,3,4: sign costs one bit
        arr = np.array([0, -1, 1, -2, 2], dtype=np.int64)
        assert zigzag_encode(arr).tolist() == [0, 1, 2, 3, 4]


# ----------------------------------------------------------- round-trips


def small_program(name="bin-prog"):
    t0 = (
        TraceBuilder()
        .read(0)
        .acquire(1)
        .write(8, size=4, gap=3)
        .release(1)
        .barrier(2)
        .build()
    )
    t1 = TraceBuilder().barrier(2).read(64, size=1).write(4096).build()
    return Program([t0, t1], name=name)


@st.composite
def programs(draw):
    num_threads = draw(st.integers(1, 3))
    traces = []
    for _ in range(num_threads):
        builder = TraceBuilder()
        for _ in range(draw(st.integers(0, 30))):
            op = draw(st.integers(0, 1))
            addr = draw(st.integers(0, 2**20)) * 4
            size = draw(st.sampled_from([1, 2, 4, 8]))
            gap = draw(st.integers(0, 50))
            if op == 0:
                builder.read(addr, size=size, gap=gap)
            else:
                builder.write(addr, size=size, gap=gap)
            if draw(st.booleans()):
                lock = draw(st.integers(0, 3))
                if lock in builder.held_locks:
                    builder.release(lock)
                elif draw(st.booleans()):
                    builder.acquire(lock)
        for lock in builder.held_locks:
            builder.release(lock)
        traces.append(builder.build())
    return Program(traces, name="hypo")


def assert_programs_equal(a: Program, b: Program):
    assert a.name == b.name
    assert a.num_threads == b.num_threads
    assert a.barrier_participants == b.barrier_participants
    for ta, tb in zip(a.traces, b.traces):
        assert ta == tb


class TestRoundTrip:
    def test_explicit_program(self, tmp_path):
        original = small_program()
        path = tmp_path / "p.rtb"
        save_program_bin(original, path)
        assert_programs_equal(original, load_program_bin(path))

    def test_io_dispatch_by_extension_and_magic(self, tmp_path):
        original = small_program()
        path = tmp_path / "p.rtb"
        save_program(original, path)
        assert path.read_bytes()[: len(MAGIC)] == MAGIC
        # load_program sniffs magic, not extension
        disguised = tmp_path / "p.trace"
        disguised.write_bytes(path.read_bytes())
        assert_programs_equal(original, load_program(disguised))

    def test_empty_trace_threads(self, tmp_path):
        program = Program(
            [TraceBuilder().build(), TraceBuilder().read(0).build()],
            name="mostly-empty",
        )
        path = tmp_path / "e.rtb"
        save_program_bin(program, path)
        assert_programs_equal(program, load_program_bin(path))

    @given(program=programs())
    @settings(max_examples=25, deadline=None)
    def test_program_roundtrip(self, program, tmp_path_factory):
        rtb = tmp_path_factory.mktemp("rt") / "p.rtb"
        save_program(program, rtb)
        assert_programs_equal(program, load_program(rtb))

    def test_multi_chunk_writer(self, tmp_path):
        builder = TraceBuilder()
        for i in range(1000):
            builder.write(i * 8, gap=i % 7)
        program = Program([builder.build()], name="chunky")
        path = tmp_path / "c.rtb"
        save_program_bin(program, path, chunk_events=64)
        assert scan_rtb(path).chunks > 1
        assert_programs_equal(program, load_program_bin(path))


# -------------------------------------------------------------- rejection


class TestRejection:
    def write_file(self, tmp_path, chunk_events=32):
        builder = TraceBuilder()
        for i in range(256):
            builder.write(i * 8)
        program = Program([builder.build()], name="victim")
        path = tmp_path / "v.rtb"
        save_program_bin(program, path, chunk_events=chunk_events)
        return path

    def test_truncated_footer_rejected(self, tmp_path):
        path = self.write_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceError, match="truncat"):
            load_program_bin(path)

    def test_corrupt_payload_rejected(self, tmp_path):
        path = self.write_file(tmp_path)
        data = bytearray(path.read_bytes())
        # flip a byte well inside the first chunk payload
        data[60] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            load_program_bin(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = self.write_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            load_program_bin(path)

    def test_future_version_rejected(self, tmp_path):
        path = self.write_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(MAGIC)] = FORMAT_VERSION + 1
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError, match="version"):
            load_program_bin(path)

    def test_writer_abort_leaves_rejectable_torso(self, tmp_path):
        path = tmp_path / "abort.rtb"
        events = np.zeros(4, dtype=EVENT_DTYPE)
        try:
            with BinTraceWriter(path, 1, "abort") as writer:
                writer.append(0, events)
                raise RuntimeError("capture failed")
        except RuntimeError:
            pass
        with pytest.raises(TraceError):
            load_program_bin(path)


#: every way a trace file can be damaged; the header cases make the
#: file unsalvageable (the scan itself raises), the rest leave a valid
#: chunk prefix that the scan reports as not ok
DAMAGE = [
    "bad-magic",
    "bad-version",
    "mid-chunk-truncation",
    "missing-footer",
    "crc-flip",
    "data-after-footer",
    "footer-counts",
]


class TestDamagedFiles:
    def write_file(self, tmp_path, kind):
        """A two-thread multi-chunk trace damaged in one named way."""
        builder = TraceBuilder()
        for i in range(256):
            builder.write(i * 8, gap=i % 3)
        path = tmp_path / f"{kind}.rtb"
        with BinTraceWriter(path, 2, "damaged", chunk_events=32) as writer:
            writer.append_trace(0, builder.build())
            writer.append_trace(1, TraceBuilder().read(64).build())
            for tid in range(2):
                writer._flush_thread(tid)
            footer_at = writer._fh.tell()
            if kind == "footer-counts":
                writer._totals[1] += 1  # a promised event no chunk holds
        assert kind == "footer-counts" or scan_rtb(path).ok
        data = bytearray(path.read_bytes())
        if kind == "bad-magic":
            data[:4] = b"NOPE"
        elif kind == "bad-version":
            data[len(MAGIC)] = FORMAT_VERSION + 1
        elif kind == "mid-chunk-truncation":
            del data[len(data) // 2:]
        elif kind == "missing-footer":
            del data[footer_at:]
        elif kind == "crc-flip":
            data[footer_at - 1] ^= 0xFF  # last CRC byte of the last chunk
        elif kind == "data-after-footer":
            data += b"\x00"
        path.write_bytes(bytes(data))
        return path

    @pytest.mark.parametrize("kind", DAMAGE)
    def test_load_rejects_and_scan_flags(self, tmp_path, kind):
        path = self.write_file(tmp_path, kind)
        with pytest.raises(TraceError):
            load_program_bin(path)
        if kind in ("bad-magic", "bad-version"):
            with pytest.raises(TraceError):
                scan_rtb(path)
        else:
            assert not scan_rtb(path).ok


# ------------------------------------------------------------- salvage


class TestSalvage:
    """Torn-write recovery: scan_rtb/salvage_rtb recover the valid
    chunk prefix of damaged traces as files the loader accepts."""

    def write_file(self, tmp_path, num_threads=2, chunk_events=32):
        program = Program(
            [
                TraceBuilder()
                .write(8 * t, gap=t)
                .barrier(0)
                .read(4096 + 8 * t)
                .build()
                for t in range(num_threads)
            ],
            name="salvage-victim",
        )
        # pad thread 0 so the file spans several chunks
        builder = TraceBuilder()
        for i in range(200):
            builder.write(i * 16, gap=1)
        traces = [builder.build()] + list(program.traces[1:])
        program = Program(traces, name="salvage-victim")
        path = tmp_path / "v.rtb"
        save_program_bin(program, path, chunk_events=chunk_events)
        return path, program

    def test_scan_clean_file_is_ok(self, tmp_path):
        path, program = self.write_file(tmp_path)
        report = scan_rtb(path)
        assert report.ok and report.reason == ""
        assert report.torn_bytes == 0
        assert report.events == sum(len(t.events) for t in program.traces)
        assert report.num_threads == program.num_threads

    def test_salvage_clean_file_in_place_is_noop(self, tmp_path):
        path, _ = self.write_file(tmp_path)
        before = path.read_bytes()
        assert salvage_rtb(path).ok
        assert path.read_bytes() == before

    def test_salvage_truncated_file(self, tmp_path):
        path, program = self.write_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: int(len(data) * 0.6)])
        report = scan_rtb(path)
        assert not report.ok
        assert 0 < report.events < sum(
            len(t.events) for t in program.traces
        )
        salvage_rtb(path)  # in place
        recovered = load_program_bin(path)  # the loader accepts it
        assert recovered.num_threads == program.num_threads
        # every salvaged event is an exact prefix of the original trace
        total = 0
        for orig, got in zip(program.traces, recovered.traces):
            assert np.array_equal(
                got.events, orig.events[: len(got.events)]
            )
            total += len(got.events)
        assert total == report.events

    def test_salvage_bitflip_to_new_dest(self, tmp_path):
        path, program = self.write_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        dest = tmp_path / "recovered.rtb"
        report = salvage_rtb(path, dest)
        assert not report.ok and report.events > 0
        # source untouched, destination loadable
        assert path.read_bytes() == bytes(data)
        recovered = load_program_bin(dest)
        for orig, got in zip(program.traces, recovered.traces):
            assert np.array_equal(got.events, orig.events[: len(got.events)])
        assert not list(tmp_path.glob(".tmp-*"))

    def test_salvage_preserves_footer_barriers(self, tmp_path):
        path, program = self.write_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data + b"\xff trailing garbage")
        report = scan_rtb(path)
        assert not report.ok and report.reason == "data after the footer"
        assert report.events == sum(len(t.events) for t in program.traces)
        salvage_rtb(path)
        recovered = load_program_bin(path)
        assert recovered.barrier_participants == program.barrier_participants

    def test_header_damage_is_unsalvageable(self, tmp_path):
        path, _ = self.write_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            scan_rtb(path)
        with pytest.raises(TraceError):
            salvage_rtb(path)
