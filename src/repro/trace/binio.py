"""Compact streaming binary trace format (``.rtb``).

The ``.npz`` archives written by :mod:`repro.trace.io` are convenient
but monolithic: a program must be fully materialized to save it and
fully loaded to replay it.  Captured real-program traces
(:mod:`repro.capture`) can be far larger than RAM, so this module
defines a chunked binary format that supports

* **streaming writes** — events are appended per thread in bounded
  chunks while the captured program is still running;
* **streaming reads** — :meth:`BinTraceReader.stream_program` returns a
  program whose columns are lazy chunk cursors, so the simulator
  replays with O(chunk) peak memory per thread;
* **compactness** — per-column encoding (raw bytes for kinds/sizes,
  zigzag-varint deltas for addresses, varints for gaps and sync ids)
  followed by per-chunk DEFLATE beats the record-oriented ``.npz``
  encoding by a wide margin (``benchmarks/bench_capture.py`` asserts
  >= 3x).

Wire layout
-----------

::

    header  := MAGIC (4B) | version u8 | meta_len varint | meta JSON
    chunk   := CHUNK_EVENTS u8 | tid varint | count varint
               | payload_len varint | payload (zlib) | crc32 u32le
    footer  := CHUNK_FOOTER u8 | payload_len varint | payload (zlib)
               | crc32 u32le

The events payload concatenates, in order: ``kind`` bytes (count u8),
``size`` bytes (count u8), ``gap`` varints, ``sync_id`` zigzag varints,
and ``addr`` *delta* zigzag varints.  Address deltas restart from zero
at every chunk so each chunk decodes independently.  The footer (always
the final chunk) carries per-thread event totals and the barrier
participant map; a file without a footer was truncated mid-write and is
rejected.  CRCs are computed over the compressed payload.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..common.errors import TraceError
from .events import EVENT_DTYPE, ThreadTrace
from .program import Program

MAGIC = b"RTRC"
FORMAT_VERSION = 1

CHUNK_EVENTS = 1
CHUNK_FOOTER = 2

#: default events per chunk — ~64K events decode to a few hundred KB of
#: column lists, the unit of peak memory for streamed replay
DEFAULT_CHUNK_EVENTS = 65536

_U7 = np.uint64(7)
_U63 = np.uint64(63)
_LOW7 = np.uint64(0x7F)
_CONT = np.uint8(0x80)


# --------------------------------------------------------------------------
# varint / zigzag codecs (vectorized)
# --------------------------------------------------------------------------


def encode_varints(values: np.ndarray) -> bytes:
    """LEB128-encode an array of unsigned integers."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(v)
    if n == 0:
        return b""
    # byte length of each value: one byte per started 7-bit group
    lengths = np.ones(n, dtype=np.int64)
    tmp = v >> _U7
    while tmp.any():
        lengths += tmp != 0
        tmp >>= _U7
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    out = np.zeros(int(offsets[-1] + lengths[-1]), dtype=np.uint8)
    remaining = v.copy()
    active = np.arange(n)
    position = 0
    while len(active):
        vals = remaining[active]
        byte = (vals & _LOW7).astype(np.uint8)
        vals >>= _U7
        remaining[active] = vals
        more = vals != np.uint64(0)
        byte[more] |= _CONT
        out[offsets[active] + position] = byte
        active = active[more]
        position += 1
    return out.tobytes()


def decode_varints(data: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """Decode ``count`` varints from a uint8 array.

    Returns ``(values, bytes_consumed)``; raises :class:`TraceError` on
    truncated or overlong input.
    """
    if count == 0:
        return np.zeros(0, dtype=np.uint64), 0
    terminal = np.flatnonzero((data & _CONT) == 0)
    if len(terminal) < count:
        raise TraceError("binio: truncated varint stream")
    ends = terminal[:count]
    starts = np.zeros(count, dtype=np.int64)
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    max_len = int(lengths.max())
    if max_len > 10:
        raise TraceError("binio: varint longer than 10 bytes")
    values = np.zeros(count, dtype=np.uint64)
    for position in range(max_len):
        has = lengths > position
        chunk = data[starts[has] + position].astype(np.uint64) & _LOW7
        values[has] |= chunk << np.uint64(7 * position)
    return values, int(ends[-1]) + 1


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to uint64 with small magnitudes staying small."""
    v = np.ascontiguousarray(values, dtype=np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    v = np.ascontiguousarray(values, dtype=np.uint64)
    return ((v >> np.uint64(1)).astype(np.int64)) ^ -(
        (v & np.uint64(1)).astype(np.int64)
    )


def _encode_varint_scalar(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _read_varint_scalar(fh) -> int:
    value = 0
    shift = 0
    while True:
        byte = fh.read(1)
        if not byte:
            raise TraceError("binio: truncated file (varint hit EOF)")
        b = byte[0]
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value
        shift += 7
        if shift > 63:
            raise TraceError("binio: varint longer than 10 bytes")


# --------------------------------------------------------------------------
# header parsing
# --------------------------------------------------------------------------


def _parse_header(fh, path) -> dict:
    """Parse and validate an ``.rtb`` header, returning its metadata.

    Strict: a file whose *header* is damaged carries no trustworthy
    thread count or name, so neither reading nor salvage can proceed.
    """
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise TraceError(f"{path}: not a binio trace (bad magic)")
    version_byte = fh.read(1)
    if not version_byte:
        raise TraceError(f"{path}: truncated header")
    version = version_byte[0]
    if version != FORMAT_VERSION:
        raise TraceError(
            f"{path}: binio format version {version} is not "
            f"supported (this build reads version {FORMAT_VERSION}); "
            "the file was probably written by a newer release"
        )
    meta_len = _read_varint_scalar(fh)
    meta_raw = fh.read(meta_len)
    if len(meta_raw) != meta_len:
        raise TraceError(f"{path}: truncated header metadata")
    try:
        meta = json.loads(meta_raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(f"{path}: corrupt header metadata") from exc
    if meta.get("version") != FORMAT_VERSION:
        raise TraceError(
            f"{path}: header/metadata version mismatch "
            f"({meta.get('version')!r})"
        )
    for key in ("name", "num_threads"):
        if key not in meta:
            raise TraceError(f"{path}: header metadata missing {key!r}")
    if int(meta["num_threads"]) <= 0:
        raise TraceError(f"{path}: non-positive thread count")
    return meta


# --------------------------------------------------------------------------
# chunk payload codec
# --------------------------------------------------------------------------


def _encode_events_payload(events: np.ndarray, compresslevel: int) -> bytes:
    """Encode one chunk's events into a compressed column payload."""
    kinds = np.ascontiguousarray(events["kind"])
    sizes = np.ascontiguousarray(events["size"])
    gaps = events["gap"].astype(np.uint64)
    sync = zigzag_encode(events["sync_id"].astype(np.int64))
    if len(events) and int(events["addr"].max()) >= 1 << 62:
        raise TraceError("binio: addresses above 2^62 are not encodable")
    addrs = events["addr"].astype(np.int64)
    deltas = np.empty(len(addrs), dtype=np.int64)
    if len(addrs):
        deltas[0] = addrs[0]
        np.subtract(addrs[1:], addrs[:-1], out=deltas[1:])
    raw = b"".join(
        (
            kinds.tobytes(),
            sizes.tobytes(),
            encode_varints(gaps),
            encode_varints(sync),
            encode_varints(zigzag_encode(deltas)),
        )
    )
    return zlib.compress(raw, compresslevel)


def _decode_events_payload(payload: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`_encode_events_payload`; returns a structured array."""
    try:
        raw = zlib.decompress(payload)
    except zlib.error as exc:
        raise TraceError(f"binio: corrupt chunk payload ({exc})") from exc
    if len(raw) < 2 * count:
        raise TraceError("binio: chunk payload shorter than its columns")
    buf = np.frombuffer(raw, dtype=np.uint8)
    kinds = buf[:count]
    sizes = buf[count : 2 * count]
    rest = buf[2 * count :]
    gaps, used = decode_varints(rest, count)
    rest = rest[used:]
    sync, used = decode_varints(rest, count)
    rest = rest[used:]
    deltas, used = decode_varints(rest, count)
    if len(rest[used:]):
        raise TraceError("binio: trailing bytes after chunk columns")
    events = np.empty(count, dtype=EVENT_DTYPE)
    events["kind"] = kinds
    events["size"] = sizes
    events["gap"] = gaps
    events["sync_id"] = zigzag_decode(sync)
    events["addr"] = np.cumsum(zigzag_decode(deltas)).astype(np.uint64)
    return events


# --------------------------------------------------------------------------
# writer
# --------------------------------------------------------------------------


class BinTraceWriter:
    """Streaming ``.rtb`` writer.

    Events are appended per thread (in any interleaving) and flushed as
    independent chunks; nothing is buffered beyond one chunk per
    thread, so captures larger than RAM write in bounded memory.  Use
    as a context manager — the footer that marks the file complete is
    written on :meth:`close`.
    """

    def __init__(
        self,
        path: str | Path,
        num_threads: int,
        name: str = "unnamed",
        *,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
        compresslevel: int = 6,
    ):
        if num_threads <= 0:
            raise TraceError("binio: a program needs at least one thread")
        if chunk_events <= 0:
            raise TraceError("binio: chunk_events must be positive")
        self.path = Path(path)
        self.num_threads = num_threads
        self.name = name
        self.chunk_events = chunk_events
        self.compresslevel = compresslevel
        self._pending: list[list[np.ndarray]] = [[] for _ in range(num_threads)]
        self._pending_counts = [0] * num_threads
        self._totals = [0] * num_threads
        self._barriers: dict[int, set[int]] = {}
        self._fh = open(self.path, "wb")
        self._closed = False
        meta = json.dumps(
            {"version": FORMAT_VERSION, "name": name, "num_threads": num_threads},
            sort_keys=True,
        ).encode("utf-8")
        self._fh.write(MAGIC)
        self._fh.write(bytes([FORMAT_VERSION]))
        self._fh.write(_encode_varint_scalar(len(meta)))
        self._fh.write(meta)

    # -- appending ---------------------------------------------------------

    def append(self, tid: int, events: np.ndarray) -> None:
        """Append a block of events (EVENT_DTYPE array) for thread ``tid``."""
        if self._closed:
            raise TraceError("binio: writer is closed")
        if not 0 <= tid < self.num_threads:
            raise TraceError(f"binio: tid {tid} out of range")
        if events.dtype != EVENT_DTYPE:
            raise TraceError(f"binio: expected {EVENT_DTYPE}, got {events.dtype}")
        if len(events) == 0:
            return
        from .events import BARRIER

        barrier_mask = events["kind"] == BARRIER
        if barrier_mask.any():
            for bid in np.unique(events["sync_id"][barrier_mask]).tolist():
                self._barriers.setdefault(int(bid), set()).add(tid)
        self._pending[tid].append(events)
        self._pending_counts[tid] += len(events)
        self._totals[tid] += len(events)
        if self._pending_counts[tid] >= self.chunk_events:
            self._flush_thread(tid)

    def append_trace(self, tid: int, trace: ThreadTrace) -> None:
        """Append a whole per-thread trace in chunk-sized blocks."""
        events = trace.events
        for start in range(0, len(events), self.chunk_events):
            self.append(tid, events[start : start + self.chunk_events])

    def _flush_thread(self, tid: int) -> None:
        blocks = self._pending[tid]
        if not blocks:
            return
        events = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
        self._pending[tid] = []
        self._pending_counts[tid] = 0
        for start in range(0, len(events), self.chunk_events):
            chunk = events[start : start + self.chunk_events]
            payload = _encode_events_payload(chunk, self.compresslevel)
            self._fh.write(bytes([CHUNK_EVENTS]))
            self._fh.write(_encode_varint_scalar(tid))
            self._fh.write(_encode_varint_scalar(len(chunk)))
            self._fh.write(_encode_varint_scalar(len(payload)))
            self._fh.write(payload)
            self._fh.write(zlib.crc32(payload).to_bytes(4, "little"))

    # -- finalization ------------------------------------------------------

    def close(self) -> None:
        """Flush pending chunks and write the completing footer."""
        if self._closed:
            return
        for tid in range(self.num_threads):
            self._flush_thread(tid)
        footer = json.dumps(
            {
                "counts": self._totals,
                "barriers": {
                    str(bid): sorted(tids)
                    for bid, tids in sorted(self._barriers.items())
                },
            },
            sort_keys=True,
        ).encode("utf-8")
        payload = zlib.compress(footer, self.compresslevel)
        self._fh.write(bytes([CHUNK_FOOTER]))
        self._fh.write(_encode_varint_scalar(len(payload)))
        self._fh.write(payload)
        self._fh.write(zlib.crc32(payload).to_bytes(4, "little"))
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "BinTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # leave the truncated file footerless: readers reject it
            self._fh.close()
            self._closed = True


# --------------------------------------------------------------------------
# reader
# --------------------------------------------------------------------------


class _ChunkRef:
    """Location of one decoded-on-demand events chunk."""

    __slots__ = ("tid", "count", "start", "offset", "length")

    def __init__(self, tid: int, count: int, start: int, offset: int, length: int):
        self.tid = tid
        self.count = count
        self.start = start  # first event index within the thread
        self.offset = offset  # file offset of the compressed payload
        self.length = length


class BinTraceReader:
    """Reads ``.rtb`` files written by :class:`BinTraceWriter`.

    Construction scans the chunk index (headers only, payloads are
    skipped) and validates the footer; :meth:`read_program` materializes
    everything, :meth:`stream_program` returns a :class:`StreamedProgram`
    replayable in O(chunk) memory.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = open(self.path, "rb")
        self.meta = self._read_header()
        self.num_threads = int(self.meta["num_threads"])
        self.name = str(self.meta["name"])
        self._chunks: list[list[_ChunkRef]] = [[] for _ in range(self.num_threads)]
        self.footer = self._scan_chunks()
        self.counts = [int(c) for c in self.footer["counts"]]
        if len(self.counts) != self.num_threads:
            raise TraceError(
                f"{self.path}: footer lists {len(self.counts)} threads, "
                f"header says {self.num_threads}"
            )
        for tid, refs in enumerate(self._chunks):
            indexed = sum(ref.count for ref in refs)
            if indexed != self.counts[tid]:
                raise TraceError(
                    f"{self.path}: thread {tid} has {indexed} events in "
                    f"chunks but footer promises {self.counts[tid]}"
                )
        self.barrier_participants = {
            int(bid): frozenset(tids)
            for bid, tids in self.footer.get("barriers", {}).items()
        }

    # -- parsing -----------------------------------------------------------

    def _read_header(self) -> dict:
        return _parse_header(self._fh, self.path)

    def _scan_chunks(self) -> dict:
        starts = [0] * self.num_threads
        while True:
            kind = self._fh.read(1)
            if not kind:
                raise TraceError(
                    f"{self.path}: no footer chunk — the file is truncated "
                    "(the writer died before close())"
                )
            if kind[0] == CHUNK_EVENTS:
                tid = _read_varint_scalar(self._fh)
                count = _read_varint_scalar(self._fh)
                length = _read_varint_scalar(self._fh)
                if not 0 <= tid < self.num_threads:
                    raise TraceError(f"{self.path}: chunk for unknown tid {tid}")
                offset = self._fh.tell()
                self._chunks[tid].append(
                    _ChunkRef(tid, count, starts[tid], offset, length)
                )
                starts[tid] += count
                self._fh.seek(length + 4, io.SEEK_CUR)
                if self._fh.tell() > self._file_size():
                    raise TraceError(f"{self.path}: chunk overruns the file")
            elif kind[0] == CHUNK_FOOTER:
                length = _read_varint_scalar(self._fh)
                payload = self._fh.read(length)
                if len(payload) != length:
                    raise TraceError(f"{self.path}: truncated footer")
                self._check_crc(payload)
                if self._fh.read(1):
                    raise TraceError(f"{self.path}: data after the footer")
                try:
                    footer = json.loads(zlib.decompress(payload).decode("utf-8"))
                except (zlib.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise TraceError(f"{self.path}: corrupt footer") from exc
                if "counts" not in footer:
                    raise TraceError(f"{self.path}: footer missing event counts")
                return footer
            else:
                raise TraceError(
                    f"{self.path}: unknown chunk type {kind[0]} "
                    "(corrupt file or newer format)"
                )

    def _file_size(self) -> int:
        return self.path.stat().st_size

    def _check_crc(self, payload: bytes) -> None:
        crc_raw = self._fh.read(4)
        if len(crc_raw) != 4:
            raise TraceError(f"{self.path}: truncated chunk CRC")
        if zlib.crc32(payload) != int.from_bytes(crc_raw, "little"):
            raise TraceError(f"{self.path}: chunk CRC mismatch (corrupt file)")

    # -- chunk access ------------------------------------------------------

    def _load_chunk(self, ref: _ChunkRef) -> np.ndarray:
        self._fh.seek(ref.offset)
        payload = self._fh.read(ref.length)
        if len(payload) != ref.length:
            raise TraceError(f"{self.path}: truncated chunk payload")
        self._check_crc(payload)
        events = _decode_events_payload(payload, ref.count)
        return events

    # -- program construction ----------------------------------------------

    def read_program(self) -> Program:
        """Materialize the whole file as an in-memory :class:`Program`."""
        traces = []
        for tid in range(self.num_threads):
            refs = self._chunks[tid]
            if refs:
                events = np.concatenate([self._load_chunk(ref) for ref in refs])
            else:
                events = np.empty(0, dtype=EVENT_DTYPE)
            traces.append(ThreadTrace(events))
        return Program(
            traces=traces,
            name=self.name,
            barrier_participants=dict(self.barrier_participants),
        )

    def stream_program(self) -> "StreamedProgram":
        """Lazy program whose columns decode one chunk at a time."""
        traces = [
            StreamedThreadTrace(self, tid, self.counts[tid], self._chunks[tid])
            for tid in range(self.num_threads)
        ]
        return StreamedProgram(
            traces=traces,
            name=self.name,
            barrier_participants=dict(self.barrier_participants),
        )

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "BinTraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# --------------------------------------------------------------------------
# streamed replay
# --------------------------------------------------------------------------


class _ChunkCursor:
    """Sliding one-chunk window over a thread's events.

    The simulator reads each column at a monotonically advancing index
    (with bounded re-reads of the current event while a core is blocked
    on a lock or barrier), so a single decoded chunk per thread is
    sufficient; stepping backwards across a chunk boundary is a usage
    error and raises.
    """

    __slots__ = ("_reader", "_refs", "_next", "start", "end", "columns")

    def __init__(self, reader: BinTraceReader, refs: list[_ChunkRef]):
        self._reader = reader
        self._refs = refs
        self._next = 0
        self.start = 0
        self.end = 0
        self.columns: tuple = ([], [], [], [], [])

    def seek_to(self, index: int) -> None:
        if index < self.start:
            raise TraceError(
                "binio: streamed traces only support forward replay "
                f"(asked for event {index}, window starts at {self.start})"
            )
        while index >= self.end:
            if self._next >= len(self._refs):
                raise TraceError(f"binio: event index {index} beyond trace end")
            ref = self._refs[self._next]
            self._next += 1
            events = self._reader._load_chunk(ref)
            self.start = ref.start
            self.end = ref.start + ref.count
            self.columns = (
                events["kind"].tolist(),
                events["addr"].tolist(),
                events["size"].tolist(),
                events["sync_id"].tolist(),
                events["gap"].tolist(),
            )


class _LazyColumn:
    """One column of a streamed trace, indexable like a list."""

    __slots__ = ("_cursor", "_col", "_length")

    def __init__(self, cursor: _ChunkCursor, col: int, length: int):
        self._cursor = cursor
        self._col = col
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int):
        cursor = self._cursor
        if index < cursor.start or index >= cursor.end:
            cursor.seek_to(index)
        return cursor.columns[self._col][index - cursor.start]


class StreamedThreadTrace:
    """A :class:`ThreadTrace` stand-in backed by on-disk chunks.

    Supports exactly what replay needs — ``len()`` and
    :meth:`columns` — without materializing events.  Statistics and
    NumPy column views require :meth:`materialize`.
    """

    __slots__ = ("_reader", "tid", "_length", "_refs")

    def __init__(
        self, reader: BinTraceReader, tid: int, length: int, refs: list[_ChunkRef]
    ):
        self._reader = reader
        self.tid = tid
        self._length = length
        self._refs = refs

    def __len__(self) -> int:
        return self._length

    def columns(self):
        """Lazy ``(kinds, addrs, sizes, sync_ids, gaps)`` column views.

        The five views share one chunk cursor, so replaying a thread
        holds exactly one decoded chunk in memory at a time.
        """
        cursor = _ChunkCursor(self._reader, self._refs)
        return tuple(_LazyColumn(cursor, col, self._length) for col in range(5))

    def iter_chunks(self):
        """Yield decoded chunk arrays in file order (one in memory at a
        time) — the streamed counterpart of ``ThreadTrace.iter_chunks``."""
        for ref in self._refs:
            yield self._reader._load_chunk(ref)

    def materialize(self) -> ThreadTrace:
        """Decode every chunk into an ordinary in-memory trace."""
        if not self._refs:
            return ThreadTrace(np.empty(0, dtype=EVENT_DTYPE))
        events = np.concatenate(
            [self._reader._load_chunk(ref) for ref in self._refs]
        )
        return ThreadTrace(events)

    def __repr__(self) -> str:
        return (
            f"StreamedThreadTrace(tid={self.tid}, {self._length} events, "
            f"{len(self._refs)} chunks)"
        )


class StreamedProgram(Program):
    """A :class:`Program` whose traces stream from disk.

    Barrier participants come from the file footer, so construction
    never touches event data.  Replay it with ``validate=False`` (the
    capture layer validated the program before writing) or materialize
    first.
    """

    def __post_init__(self) -> None:
        if not self.traces:
            raise TraceError("a program needs at least one thread")
        # no barrier inference: the footer supplied the participant map

    def materialize(self) -> Program:
        """Fully load into an ordinary in-memory :class:`Program`."""
        return Program(
            traces=[t.materialize() for t in self.traces],
            name=self.name,
            barrier_participants=dict(self.barrier_participants),
        )


# --------------------------------------------------------------------------
# one-shot helpers
# --------------------------------------------------------------------------


def save_program_bin(
    program: Program,
    path: str | Path,
    *,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    compresslevel: int = 6,
) -> None:
    """Write an in-memory program as a ``.rtb`` file."""
    with BinTraceWriter(
        path,
        program.num_threads,
        program.name,
        chunk_events=chunk_events,
        compresslevel=compresslevel,
    ) as writer:
        for tid, trace in enumerate(program.traces):
            writer.append_trace(tid, trace)
        # barrier participants normally accumulate from appended events;
        # trust the program's map when it is richer (e.g. declared
        # participants for threads whose trace was filtered out)
        for bid, tids in program.barrier_participants.items():
            writer._barriers.setdefault(int(bid), set()).update(tids)


def load_program_bin(path: str | Path) -> Program:
    """Materialize a ``.rtb`` file as an in-memory :class:`Program`."""
    with BinTraceReader(path) as reader:
        return reader.read_program()


def stream_program_bin(path: str | Path) -> StreamedProgram:
    """Open a ``.rtb`` file for O(chunk)-memory streamed replay.

    The returned program holds an open file handle (closed when the
    reader is garbage-collected); each call returns independent cursors.
    """
    return BinTraceReader(path).stream_program()


# --------------------------------------------------------------------------
# salvage: torn / truncated .rtb recovery
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SalvageReport:
    """What a tolerant scan of an ``.rtb`` file found.

    ``ok`` means the file is completely valid (every chunk CRC checks,
    the footer is present, its counts match, nothing trails it) —
    :class:`BinTraceReader` would accept it as-is.  Otherwise ``reason``
    says why the scan stopped, and the chunk/event/byte figures describe
    the *valid prefix* a :func:`salvage_rtb` rewrite would preserve.
    """

    path: str
    ok: bool
    reason: str
    num_threads: int
    chunks: int
    events: int
    valid_bytes: int
    total_bytes: int

    @property
    def torn_bytes(self) -> int:
        """Bytes after the last fully-valid chunk (dropped by salvage)."""
        return self.total_bytes - self.valid_bytes


def _tolerant_scan(path: Path, keep_events: bool):
    """Decode the valid chunk prefix of an ``.rtb`` file.

    Returns ``(report, meta, chunks, footer)`` where ``chunks`` is a
    list of ``(tid, events)`` in file order (empty arrays when
    ``keep_events`` is false — the scan still fully decodes each payload
    to prove it valid, it just doesn't retain the result) and ``footer``
    is the decoded footer dict when one was readable, else None.

    A damaged *header* raises :class:`TraceError` — without a
    trustworthy thread count there is no prefix worth salvaging.
    """
    total_bytes = path.stat().st_size
    chunks: list[tuple[int, np.ndarray]] = []
    footer = None
    reason = ""
    with open(path, "rb") as fh:
        meta = _parse_header(fh, path)
        num_threads = int(meta["num_threads"])
        valid = fh.tell()
        counts = [0] * num_threads
        while True:
            kind = fh.read(1)
            if not kind:
                reason = "no footer chunk (truncated mid-write)"
                break
            try:
                if kind[0] == CHUNK_EVENTS:
                    tid = _read_varint_scalar(fh)
                    count = _read_varint_scalar(fh)
                    length = _read_varint_scalar(fh)
                    if not 0 <= tid < num_threads:
                        raise TraceError(f"chunk for unknown tid {tid}")
                    payload = fh.read(length)
                    if len(payload) != length:
                        raise TraceError("truncated chunk payload")
                    crc_raw = fh.read(4)
                    if len(crc_raw) != 4:
                        raise TraceError("truncated chunk CRC")
                    if zlib.crc32(payload) != int.from_bytes(crc_raw, "little"):
                        raise TraceError("chunk CRC mismatch")
                    events = _decode_events_payload(payload, count)
                    counts[tid] += count
                    chunks.append(
                        (tid, events if keep_events
                         else np.empty(0, dtype=EVENT_DTYPE))
                    )
                    valid = fh.tell()
                elif kind[0] == CHUNK_FOOTER:
                    length = _read_varint_scalar(fh)
                    payload = fh.read(length)
                    if len(payload) != length:
                        raise TraceError("truncated footer")
                    crc_raw = fh.read(4)
                    if len(crc_raw) != 4:
                        raise TraceError("truncated footer CRC")
                    if zlib.crc32(payload) != int.from_bytes(crc_raw, "little"):
                        raise TraceError("footer CRC mismatch")
                    decoded = json.loads(zlib.decompress(payload).decode("utf-8"))
                    promised = [int(c) for c in decoded.get("counts", ())]
                    if promised != counts:
                        raise TraceError(
                            "footer event counts disagree with chunks"
                        )
                    footer = decoded
                    valid = fh.tell()
                    if fh.read(1):
                        reason = "data after the footer"
                    break
                else:
                    raise TraceError(f"unknown chunk type {kind[0]}")
            except (TraceError, zlib.error, UnicodeDecodeError,
                    json.JSONDecodeError) as exc:
                reason = str(exc)
                break
    report = SalvageReport(
        path=str(path),
        ok=footer is not None and not reason,
        reason=reason,
        num_threads=num_threads,
        chunks=len(chunks),
        events=sum(counts),
        valid_bytes=valid,
        total_bytes=total_bytes,
    )
    return report, meta, chunks, footer


def scan_rtb(path: str | Path) -> SalvageReport:
    """Check an ``.rtb`` file, reporting its salvageable valid prefix.

    Side-effect-free (the ``repro fsck --check`` path).  Every chunk
    payload is fully decoded — a CRC-valid chunk whose columns don't
    decode still ends the valid prefix, so a salvage rewrite can never
    carry damage forward.
    """
    report, _, _, _ = _tolerant_scan(Path(path), keep_events=False)
    return report


def salvage_rtb(src: str | Path, dest: str | Path | None = None) -> SalvageReport:
    """Rewrite ``src``'s valid chunk prefix as a consistent ``.rtb``.

    The recovered file is a complete, footer-terminated trace holding
    every event of every chunk that decoded cleanly; the torn tail is
    dropped.  Barrier participants are recomputed from the surviving
    barrier events (merged with the original footer's map when that
    footer was readable).  The rewrite streams into a temp file and is
    published with the atomic-replace discipline, so ``dest`` — which
    defaults to in-place repair of ``src`` — is never left torn in turn.

    Returns the pre-rewrite :class:`SalvageReport`; when it says ``ok``
    and the repair is in-place, the file is already consistent and is
    left untouched.
    """
    src = Path(src)
    report, meta, chunks, footer = _tolerant_scan(src, keep_events=True)
    dest = src if dest is None else Path(dest)
    if report.ok and dest == src:
        return report
    from ..common import durable

    fd, tmp = tempfile.mkstemp(
        dir=dest.parent, prefix=durable.TMP_PREFIX, suffix=".rtb"
    )
    os.close(fd)
    try:
        writer = BinTraceWriter(
            tmp, report.num_threads, str(meta["name"])
        )
        try:
            for tid, events in chunks:
                writer.append(tid, events)
            if footer is not None:
                for bid, tids in footer.get("barriers", {}).items():
                    writer._barriers.setdefault(int(bid), set()).update(
                        int(t) for t in tids
                    )
        finally:
            writer.close()
        durable.publish_file(tmp, dest)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return report
