"""Content-addressed on-disk cache of simulation results.

Every simulation point the executor runs is keyed by a stable SHA-256
digest of (package salt, full config fingerprint, protocol kind,
workload fingerprint); see :func:`point_key`.  A hit deserializes the
:class:`~repro.core.results.RunResult` that an identical point produced
earlier and skips the simulation entirely.

Entries are self-verifying: each file stores a checksum line followed by
the pickled payload, and the payload embeds its own key and salt.  A
truncated, corrupted or stale-schema entry is *discarded and recomputed*
— the cache can serve wrong-looking bytes only by producing a checksum
collision, never by trusting them.

Stores go through the crash-consistent replace discipline
(:func:`repro.common.durable.atomic_replace`: same-directory temp file,
fsync, rename, parent-dir fsync), so concurrent workers and concurrent
harness invocations can share one cache directory and a crash at any
byte leaves old-or-new entries, never torn ones.  The worst crash
residue is an orphaned ``.tmp-*`` file, which :meth:`ResultCache.open`
reclaims with an age-gated, lock-held GC sweep on startup.  The default
location is ``~/.cache/repro`` (``$REPRO_CACHE_DIR`` and
``$XDG_CACHE_HOME`` are honored).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

from .. import __version__
from ..common import durable
from ..common.config import SystemConfig, config_fingerprint
from ..core.results import RunResult

#: bump when RunResult/Stats change shape in a way old entries can't satisfy
CACHE_SCHEMA = 2

#: version salt folded into every key: a new package or schema version
#: invalidates the whole cache rather than serving stale results
CACHE_SALT = f"repro/{__version__}/schema{CACHE_SCHEMA}"

#: ``.tmp-*`` residue younger than this (seconds) is presumed to belong
#: to a live writer and survives the startup GC sweep
TMP_GC_AGE_SECONDS = 3600.0


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def stats_key(workload_fingerprint, line_size: int) -> str:
    """Stable cache key of one workload's characterization stats.

    Program *stats* (Table II rows) depend only on the workload and the
    line size, not on a system config — they get their own key space.
    """
    canonical = json.dumps(
        {
            "salt": CACHE_SALT,
            "kind": "program-stats",
            "line_size": line_size,
            "workload": workload_fingerprint,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def point_key(cfg: SystemConfig, workload_fingerprint) -> str:
    """Stable cache key of one (config, workload) simulation point.

    ``workload_fingerprint`` is JSON-compatible data identifying the
    workload (a spec's fields, or a trace digest); the executor builds
    it.  The protocol kind is part of the config fingerprint already but
    is spelled out explicitly so keys stay debuggable in the manifest.
    """
    canonical = json.dumps(
        {
            "salt": CACHE_SALT,
            "config": config_fingerprint(cfg),
            "protocol": cfg.protocol.value,
            "workload": workload_fingerprint,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    discarded: int = 0
    tmp_reclaimed: int = 0

    @property
    def corrupt_evictions(self) -> int:
        """Entries evicted because they failed verification on ``get``.

        Every discard is a corrupt (truncated, bit-flipped, stale-schema
        or mistyped) entry — surfaced in the run manifest and the CLI
        timing summary so silent disk rot is never actually silent.
        """
        return self.discarded


class ResultCache:
    """On-disk result store, sharded by the first key byte."""

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()

    @classmethod
    def open(
        cls, root: str | Path | None = None, *,
        gc_tmp_age: float = TMP_GC_AGE_SECONDS,
    ) -> "ResultCache":
        """A cache with startup housekeeping: GC orphaned ``.tmp-*`` files.

        A worker killed between ``mkstemp`` and ``os.replace`` leaves its
        temp file behind; this sweep (age-gated so live writers' in-flight
        files survive, lock-held so concurrent opens don't race) reclaims
        that residue.  The count lands in ``stats.tmp_reclaimed``.
        """
        cache = cls(root)
        cache.stats.tmp_reclaimed += len(
            durable.gc_stale_tmps(cache.root, gc_tmp_age)
        )
        return cache

    def gc_stale_tmps(self, min_age_seconds: float = TMP_GC_AGE_SECONDS,
                      *, now: float | None = None) -> list[Path]:
        """Reclaim orphaned ``.tmp-*`` residue under this cache root."""
        reclaimed = durable.gc_stale_tmps(self.root, min_age_seconds, now=now)
        self.stats.tmp_reclaimed += len(reclaimed)
        return reclaimed

    def lock(self) -> durable.FileLock:
        """The advisory lock serializing multi-step updates to this cache."""
        return durable.FileLock(self.root / ".lock")

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key[2:]}.pkl"

    def get(self, key: str, expect: type = RunResult):
        """Load a cached object, or None on miss/corruption.

        ``expect`` is the payload type the caller will trust
        (:class:`RunResult` for simulation points).  A corrupted entry —
        bad checksum, unpicklable payload, key or salt mismatch, wrong
        type — is deleted so the next run recomputes and overwrites it.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            checksum, payload = blob.split(b"\n", 1)
            if hashlib.sha256(payload).hexdigest().encode("ascii") != checksum:
                raise ValueError("checksum mismatch")
            entry = pickle.loads(payload)
            if entry["key"] != key or entry["salt"] != CACHE_SALT:
                raise ValueError("key/salt mismatch")
            result = entry["result"]
            if not isinstance(result, expect):
                raise ValueError(f"payload is not a {expect.__name__}")
        except Exception:
            self.stats.discarded += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, result) -> None:
        """Store a picklable payload atomically under ``key``.

        The durable replace (fsync'd temp + rename + dir fsync) means a
        concurrent reader — or a crash at any byte — sees the previous
        entry or the complete new one, never a torn mix.
        """
        path = self.path_for(key)
        payload = pickle.dumps(
            {"key": key, "salt": CACHE_SALT, "result": result},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        blob = hashlib.sha256(payload).hexdigest().encode("ascii") + b"\n" + payload
        durable.atomic_replace(path, blob, site="cache-entry")
        self.stats.stores += 1

    def corrupt_entry(self, key: str) -> bool:
        """Flip the last byte of ``key``'s entry (fault injection only).

        Used by the chaos harness to prove the self-verifying read path:
        the next :meth:`get` must detect the damage, evict the entry and
        report a miss.  Returns False when no entry exists.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return False
        if not blob:
            return False
        path.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))  # detlint: ok
        return True
