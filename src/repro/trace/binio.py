"""The trace file format (``.rtb``): chunked, compact, checksummed.

Every trace that leaves memory — a saved capture, an upload to the
service — is one ``.rtb`` file.  The writer appends events per thread
in bounded chunks; each chunk's columns are encoded separately (raw
bytes for kinds/sizes, zigzag-varint deltas for addresses, varints for
gaps and sync ids), DEFLATE-compressed and CRC-checked.

Reading has one parser, :func:`_tolerant_scan`, which decodes the valid
chunk prefix of a file and says why it stopped.  On top of it sit
:func:`load_program_bin` (the whole file as an in-memory
:class:`~repro.trace.program.Program`, or :class:`TraceError` when any
part is damaged), :func:`scan_rtb` (check only) and :func:`salvage_rtb`
(rewrite the valid prefix as a consistent file).

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

#: default events per chunk (1 MiB of decoded events); part of the
#: byte layout, so changing it changes every file written
DEFAULT_CHUNK_EVENTS = 65536

_U7 = np.uint64(7)
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
    """Chunked ``.rtb`` writer.

    Events are appended per thread (in any interleaving) and flushed as
    independent chunks; nothing is buffered beyond one chunk per
    thread.  Use as a context manager — the footer that marks the file
    complete is written on :meth:`close`.
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
# whole-program write
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


# --------------------------------------------------------------------------
# reading: one chunk scanner for load, check and salvage
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SalvageReport:
    """What a tolerant scan of an ``.rtb`` file found.

    ``ok`` means the file is completely valid (every chunk CRC checks,
    the footer is present, its counts match, nothing trails it) —
    :func:`load_program_bin` would accept it as-is.  Otherwise ``reason``
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

    The only parser of ``.rtb`` chunks: loading, checking and salvage
    all go through it, so they agree on what a valid file is.

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


def load_program_bin(path: str | Path) -> Program:
    """Read a ``.rtb`` file as an in-memory :class:`Program`.

    Anything short of a completely valid file (bad header, torn or
    corrupt chunk, missing or inconsistent footer, data after the
    footer) raises :class:`TraceError` with the scan's reason.
    """
    path = Path(path)
    report, meta, chunks, footer = _tolerant_scan(path, keep_events=True)
    if not report.ok:
        raise TraceError(f"{path}: {report.reason}")
    blocks: list[list[np.ndarray]] = [[] for _ in range(report.num_threads)]
    for tid, events in chunks:
        blocks[tid].append(events)
    traces = [
        ThreadTrace(
            np.concatenate(parts) if parts else np.empty(0, dtype=EVENT_DTYPE)
        )
        for parts in blocks
    ]
    return Program(
        traces=traces,
        name=str(meta["name"]),
        barrier_participants={
            int(bid): frozenset(int(t) for t in tids)
            for bid, tids in footer.get("barriers", {}).items()
        },
    )


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
