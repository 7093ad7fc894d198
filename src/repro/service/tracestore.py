"""Content-addressed store of uploaded ``.rtb`` traces.

Uploads stream through :meth:`TraceStore.put_stream` in O(chunk)
memory: bytes are hashed while they are appended to a same-directory
``.tmp-*`` file (via the chaos-instrumented
:func:`~repro.common.durable.checked_write`, so the kill-point harness
can tear an upload at any byte), the finished file is *verified as a
complete, CRC-clean trace* before anything is published, and
publication is the fsync'd atomic rename of
:func:`~repro.common.durable.publish_file`.  A crash at any instant
therefore leaves either nothing (plus ``.tmp-*`` residue that
``repro fsck``/the startup GC reclaims) or a fully-verified trace —
never a torn one a later job could trip over.

Traces are addressed by the SHA-256 of their bytes, so uploads are
idempotent and deduplicated: re-uploading an existing trace is a no-op
that reports ``existed=True``.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Iterable

from ..common import durable
from ..common.errors import ServiceError, TraceError
from ..trace.program import Program
from .models import TraceInfo

#: shard uploads by the leading digest byte, like the result cache
_SHARD_CHARS = 2

#: default streaming granularity for uploads and downloads
CHUNK_BYTES = 256 * 1024


class TraceStore:
    """Content-addressed ``.rtb`` directory under ``root``."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @classmethod
    def open(cls, root: str | Path, *, gc_tmp_age: float = 3600.0) -> "TraceStore":
        """A store with startup housekeeping: GC orphaned upload residue."""
        store = cls(root)
        durable.gc_stale_tmps(store.root, gc_tmp_age)
        return store

    def path_for(self, digest: str) -> Path:
        return self.root / digest[:_SHARD_CHARS] / f"{digest}.rtb"

    def has(self, digest: str) -> bool:
        return self.path_for(digest).is_file()

    def digests(self) -> list[str]:
        """Every stored trace digest, sorted."""
        return sorted(p.stem for p in self.root.glob("*/*.rtb"))

    # -- ingest ----------------------------------------------------------

    def put_stream(self, chunks: Iterable[bytes]) -> TraceInfo:
        """Stream an upload into the store; returns its :class:`TraceInfo`.

        The trace is verified (full tolerant scan: header, every chunk
        CRC, footer) *before* publication; a truncated or corrupt
        upload raises :class:`~repro.common.errors.ServiceError` and
        leaves only a temp file that is removed on the spot.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        hasher = hashlib.sha256()
        size = 0
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=durable.TMP_PREFIX)
        try:
            try:
                for chunk in chunks:
                    if not chunk:
                        continue
                    hasher.update(chunk)
                    size += len(chunk)
                    durable.checked_write(fd, chunk, "trace-store:upload-write")
                durable.fdatasync_fd(fd)
            finally:
                os.close(fd)
            digest = hasher.hexdigest()
            info = self._verify(Path(tmp), digest, size)
            dest = self.path_for(digest)
            if dest.is_file():
                os.unlink(tmp)
                return TraceInfo(
                    digest=digest, bytes=size, events=info.events,
                    threads=info.threads, existed=True,
                )
            dest.parent.mkdir(parents=True, exist_ok=True)
            durable.kill_point("trace-store:pre-publish")
            durable.publish_file(tmp, dest)
            durable.kill_point("trace-store:post-publish")
            return info
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def put_file(self, path: str | Path) -> TraceInfo:
        """Ingest an ``.rtb`` file from disk (the client-side helper)."""
        with open(path, "rb") as fh:
            return self.put_stream(iter(lambda: fh.read(CHUNK_BYTES), b""))

    def _verify(self, path: Path, digest: str, size: int) -> TraceInfo:
        from ..trace.binio import scan_rtb

        try:
            scanned = scan_rtb(path)
        except (TraceError, OSError) as exc:
            raise ServiceError(f"uploaded trace is not a valid .rtb: {exc}")
        if not scanned.ok:
            raise ServiceError(
                f"uploaded trace is damaged ({scanned.reason}); "
                "refusing to store it"
            )
        return TraceInfo(
            digest=digest, bytes=size, events=scanned.events,
            threads=scanned.num_threads,
        )

    # -- serving ---------------------------------------------------------

    def info(self, digest: str) -> TraceInfo:
        """Metadata of a stored trace (re-scanned, trust-on-read)."""
        path = self._require(digest)
        from ..trace.binio import scan_rtb

        scanned = scan_rtb(path)
        if not scanned.ok:
            raise ServiceError(
                f"stored trace {digest[:12]} no longer verifies "
                f"({scanned.reason}); run repro fsck"
            )
        return TraceInfo(
            digest=digest, bytes=path.stat().st_size,
            events=scanned.events, threads=scanned.num_threads, existed=True,
        )

    def load_program(self, digest: str) -> Program:
        """Load a stored trace as an in-memory :class:`Program`."""
        from ..trace.io import load_program

        return load_program(self._require(digest))

    def _require(self, digest: str) -> Path:
        path = self.path_for(digest)
        if not path.is_file():
            raise ServiceError(f"no such trace: {digest}")
        return path
