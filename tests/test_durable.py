"""Unit tests for the crash-consistent durability layer.

Covers the primitives directly — frame codec, torn-tail salvage,
journal repair, atomic replace under injected tears, advisory locks,
stale-tmp GC — with in-process kill hooks (``durable._die`` is
monkeypatched to raise instead of ``os._exit``).  The end-to-end
chaos proofs, which really do SIGKILL harness subprocesses, live in
tests/test_crashsafe.py.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.common import durable
from repro.common.durable import (
    FileLock,
    FramedJournal,
    atomic_replace,
    atomic_replace_text,
    collect_stale_tmps,
    encode_frame,
    gc_stale_tmps,
    publish_file,
    scan_frames,
)
from repro.harness.faultinject import FaultPlan, KillPlan, hash_draw


class _Died(BaseException):
    """Stands in for os._exit inside in-process kill-hook tests."""


@pytest.fixture
def in_process_kill(monkeypatch):
    """Route kill points through an exception this process survives."""

    def die():
        raise _Died

    monkeypatch.setattr(durable, "_die", die)
    yield
    durable.set_kill_hook(None)


# --------------------------------------------------------------------------
# frame codec + salvage scan
# --------------------------------------------------------------------------


class TestFrames:
    def test_round_trip(self):
        payloads = [b"", b"x", b"hello" * 100, bytes(range(256))]
        blob = b"".join(encode_frame(p) for p in payloads)
        scanned = scan_frames(blob)
        assert list(scanned.payloads) == payloads
        assert scanned.torn_bytes == 0
        assert scanned.valid_bytes == len(blob)

    def test_torn_tail_is_isolated(self):
        blob = encode_frame(b"first") + encode_frame(b"second")
        for cut in range(1, len(encode_frame(b"third"))):
            torn = blob + encode_frame(b"third")[:cut]
            scanned = scan_frames(torn)
            assert list(scanned.payloads) == [b"first", b"second"], cut
            assert scanned.torn_bytes == cut

    def test_scan_stops_at_corrupt_frame(self):
        frames = [encode_frame(b"a"), encode_frame(b"b"), encode_frame(b"c")]
        blob = bytearray(b"".join(frames))
        # flip frame 2's payload byte: its CRC now fails
        blob[len(frames[0]) + durable._FRAME_HEADER.size] ^= 0xFF
        scanned = scan_frames(bytes(blob))
        assert list(scanned.payloads) == [b"a"]  # c is unreachable: offsets gone

    def test_oversize_payload_rejected(self):
        with pytest.raises(ValueError):
            encode_frame(b"\0" * (durable.MAX_FRAME_PAYLOAD + 1))

    def test_implausible_length_treated_as_corruption(self):
        bogus = durable._FRAME_HEADER.pack(
            durable.FRAME_MAGIC, durable.MAX_FRAME_PAYLOAD + 1, 0
        )
        scanned = scan_frames(encode_frame(b"ok") + bogus + b"\0" * 64)
        assert list(scanned.payloads) == [b"ok"]


class TestJournal:
    def test_append_scan_round_trip(self, tmp_path):
        journal = FramedJournal(tmp_path / "j.rjl")
        for i in range(10):
            journal.append(json.dumps({"i": i}).encode())
        assert [json.loads(p)["i"] for p in journal.iter_payloads()] == \
            list(range(10))

    def test_repair_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "j.rjl"
        journal = FramedJournal(path)
        journal.append(b"keep me")
        with path.open("ab") as fh:
            fh.write(encode_frame(b"torn")[:-3])
        assert journal.scan().torn_bytes > 0
        dropped = journal.repair()
        assert dropped == len(encode_frame(b"torn")) - 3
        assert journal.scan().torn_bytes == 0
        assert list(journal.iter_payloads()) == [b"keep me"]
        assert journal.repair() == 0  # idempotent

    def test_reset_starts_empty(self, tmp_path):
        journal = FramedJournal(tmp_path / "j.rjl")
        journal.append(b"old run")
        journal.reset()
        assert list(journal.iter_payloads()) == []

    def test_concurrent_appends_interleave_at_frame_granularity(self, tmp_path):
        journal = FramedJournal(tmp_path / "j.rjl")
        errors = []

        def writer(tag):
            try:
                for i in range(50):
                    journal.append(f"{tag}:{i}".encode())
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in "abcd"
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        scanned = journal.scan()
        assert scanned.torn_bytes == 0
        payloads = [p.decode() for p in scanned.payloads]
        assert len(payloads) == 200
        for tag in "abcd":  # per-writer order survives interleaving
            mine = [p for p in payloads if p.startswith(tag)]
            assert mine == [f"{tag}:{i}" for i in range(50)]


# --------------------------------------------------------------------------
# atomic replace
# --------------------------------------------------------------------------


class TestAtomicReplace:
    def test_replaces_and_round_trips(self, tmp_path):
        path = tmp_path / "a" / "f.json"
        atomic_replace_text(path, "one")
        atomic_replace_text(path, "two")
        assert path.read_text() == "two"
        assert not list(tmp_path.rglob(".tmp-*"))

    def test_torn_tmp_write_keeps_old_bytes(self, tmp_path, in_process_kill):
        path = tmp_path / "f.bin"
        atomic_replace(path, b"old content")
        plan = KillPlan(seed=5, rate=1.0, tear_rate=1.0, sites="tmp-write")
        durable.set_kill_hook(plan.hook())
        with pytest.raises(_Died):
            atomic_replace(path, b"new content")
        durable.set_kill_hook(None)
        assert path.read_bytes() == b"old content"
        # in-process the exception path even cleans its temp file (a
        # real os._exit leaves it; tests/test_result_cache.py proves the
        # GC handles that residue)
        assert not list(tmp_path.rglob(".tmp-*"))

    def test_kill_before_rename_keeps_old(self, tmp_path, in_process_kill):
        path = tmp_path / "f.bin"
        atomic_replace(path, b"old")
        plan = KillPlan(seed=2, rate=1.0, sites="pre-rename")
        durable.set_kill_hook(plan.hook())
        with pytest.raises(_Died):
            atomic_replace(path, b"new")
        durable.set_kill_hook(None)
        assert path.read_bytes() == b"old"

    def test_kill_after_rename_has_new(self, tmp_path, in_process_kill):
        path = tmp_path / "f.bin"
        atomic_replace(path, b"old")
        plan = KillPlan(seed=2, rate=1.0, sites="post-rename")
        durable.set_kill_hook(plan.hook())
        with pytest.raises(_Died):
            atomic_replace(path, b"new")
        durable.set_kill_hook(None)
        assert path.read_bytes() == b"new"

    def test_publish_file(self, tmp_path):
        tmp = tmp_path / ".tmp-stream"
        tmp.write_bytes(b"streamed")
        dest = tmp_path / "final.bin"
        publish_file(tmp, dest)
        assert dest.read_bytes() == b"streamed"
        assert not tmp.exists()

    def test_exception_cleans_up_tmp(self, tmp_path, monkeypatch):
        def boom(fd, data, site):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(durable, "checked_write", boom)
        with pytest.raises(RuntimeError):
            atomic_replace(tmp_path / "f", b"x")
        assert not list(tmp_path.rglob(".tmp-*"))


# --------------------------------------------------------------------------
# locks + GC
# --------------------------------------------------------------------------


class TestFileLock:
    def test_mutual_exclusion_across_threads(self, tmp_path):
        counter = {"value": 0}

        def bump():
            for _ in range(25):
                with FileLock(tmp_path / ".lock"):
                    current = counter["value"]
                    counter["value"] = current + 1

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["value"] == 100

    def test_reacquire_same_object_rejected(self, tmp_path):
        lock = FileLock(tmp_path / ".lock")
        with lock:
            with pytest.raises(RuntimeError):
                lock.acquire()
        with lock:  # released cleanly, usable again
            pass


class TestTmpGC:
    def test_age_gate(self, tmp_path):
        stale = tmp_path / ".tmp-old"
        fresh = tmp_path / ".tmp-new"
        stale.write_bytes(b"")
        fresh.write_bytes(b"")
        old = stale.stat().st_mtime - 7200
        os.utime(stale, (old, old))
        assert collect_stale_tmps(tmp_path, 3600) == [stale]
        assert gc_stale_tmps(tmp_path, 3600) == [stale]
        assert fresh.exists() and not stale.exists()

    def test_non_tmp_files_never_touched(self, tmp_path):
        (tmp_path / "entry.pkl").write_bytes(b"data")
        (tmp_path / ".tmp-x").write_bytes(b"")
        gc_stale_tmps(tmp_path, 0)
        assert (tmp_path / "entry.pkl").exists()
        assert not (tmp_path / ".tmp-x").exists()


# --------------------------------------------------------------------------
# kill plans
# --------------------------------------------------------------------------


class TestKillPlan:
    def test_parse_describe_round_trip(self):
        plan = KillPlan.parse("seed=7,rate=0.25,tear=0.5,sites=cache")
        assert plan == KillPlan(7, 0.25, 0.5, "cache")
        assert KillPlan.parse(plan.describe()) == plan

    def test_fault_plan_describe_parses_back(self):
        """The ``[faultinject: ...]`` banner pastes back into
        ``--inject-faults``."""
        plan = FaultPlan(
            seed=7, crash_rate=0.2, slow_rate=0.05, slow_seconds=5,
            pickle_rate=0.1, corrupt_rate=0.125,
        )
        assert FaultPlan.parse(plan.describe()) == plan
        assert FaultPlan.parse(FaultPlan().describe()) == FaultPlan()

    def test_parse_rejects_bad_specs(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            KillPlan.parse("bogus=1")
        with pytest.raises(ConfigError):
            KillPlan.parse("rate")
        with pytest.raises(ConfigError):
            KillPlan(rate=1.5)

    def test_hook_is_deterministic(self):
        plan = KillPlan(seed=11, rate=0.3, tear_rate=0.5)
        runs = []
        for _ in range(2):
            hook = plan.hook()
            runs.append([hook(f"site-{i % 3}", 100) for i in range(60)])
        assert runs[0] == runs[1]
        assert any(a is not None for a in runs[0])  # the plan does fire

    def test_site_filter(self):
        hook = KillPlan(seed=1, rate=1.0, sites="cache").hook()
        assert hook("checkpoint:append", 10) is None
        assert hook("cache-entry:tmp-write", 10) is not None

    def test_env_activation(self, tmp_path, in_process_kill, monkeypatch):
        monkeypatch.setenv(
            durable.KILLPOINT_ENV, "seed=1,rate=1,tear=0"
        )
        durable.set_kill_hook(None)  # force a fresh env probe
        with pytest.raises(_Died):
            atomic_replace(tmp_path / "f", b"x")

    def test_hash_draw_matches_faultplan_discipline(self):
        # same inputs, same draw; any part changes it
        assert hash_draw(1, "a", "b", 2) == hash_draw(1, "a", "b", 2)
        draws = {
            hash_draw(1, "a", "b", 2), hash_draw(2, "a", "b", 2),
            hash_draw(1, "z", "b", 2), hash_draw(1, "a", "z", 2),
            hash_draw(1, "a", "b", 3),
        }
        assert len(draws) == 5
        assert all(0.0 <= d < 1.0 for d in draws)
