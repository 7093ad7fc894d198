"""Resilience-layer tests: timeouts, retries, keep-going, crash recovery.

The executor's failure contract mirrors the paper's fail-precisely
philosophy: a simulation point either completes, or it surfaces as a
*typed*, fully-accounted failure — never a hang, never a silently
dropped or corrupted result.  These tests drive the crash paths
directly (killed workers, truncated cache entries, interrupts); the
seeded chaos-plan suite lives in tests/test_faultinject.py.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field

import pytest

from repro.common import durable
from repro.common.config import SystemConfig
from repro.common.errors import (
    ConfigError,
    PointFailedError,
    PointFailure,
    PointTimeoutError,
    WorkerCrashError,
    is_transient,
)
from repro.harness import (
    Checkpoint,
    Executor,
    FaultPlan,
    ResultCache,
    SimPoint,
    WorkloadSpec,
    resolve_jobs,
)


def spec(seed=1, name="lock-counter", threads=2, scale=0.05):
    return WorkloadSpec.make(name, num_threads=threads, seed=seed, scale=scale)


def points(n=3, **kw):
    cfg = SystemConfig(num_cores=2)
    return [SimPoint(cfg, spec(seed=s, **kw)) for s in range(1, n + 1)]


def baseline_summaries(pts):
    return [r.summary() for r in Executor(jobs=1).run_points(pts)]


# --------------------------------------------------------------------------
# timeouts
# --------------------------------------------------------------------------


class TestPointTimeout:
    def test_hung_point_times_out_and_raises(self):
        """A hung worker is reaped at its deadline; the sweep aborts with
        the typed error and a consistent manifest."""
        pts = points(3)
        hang_all = FaultPlan(seed=1, slow_rate=1.0, slow_seconds=60)
        ex = Executor(
            jobs=2, point_timeout=0.5, fault_plan=hang_all, backoff=0.01
        )
        start = time.monotonic()
        with pytest.raises(PointTimeoutError):
            ex.run_points(pts)
        assert time.monotonic() - start < 10  # never waits out the hang
        assert ex.manifest.timeouts >= 1
        assert all(e.status == "timeout" for e in ex.manifest.entries)
        ex.close()  # pool already killed; must not block

    def test_keep_going_completes_within_budget(self):
        """One injected hang + keep_going: the run finishes, the failed
        point (and only it) is typed, indexed and accounted."""
        pts = points(3)
        hung_key = pts[1].key()
        plan = _hang_exactly(hung_key)
        with Executor(
            jobs=2, point_timeout=0.8, keep_going=True,
            fault_plan=plan, backoff=0.01,
        ) as ex:
            start = time.monotonic()
            results = ex.run_points(pts)
            elapsed = time.monotonic() - start
        assert elapsed < 10
        assert isinstance(results[1], PointFailure)
        assert results[1].kind == "timeout"
        assert results[1].key == hung_key
        assert results[0].summary() and results[2].summary()
        statuses = [e.status for e in ex.manifest.entries]
        assert statuses.count("timeout") == 1
        assert [f.key for f in ex.point_failures] == [hung_key]

    def test_timeout_retry_then_success(self):
        """A point that hangs only on attempt 1 succeeds via retry and
        matches the fault-free result."""
        pts = points(2)
        plan = _hang_exactly(pts[0].key(), attempts=(1,))
        expected = baseline_summaries(pts)
        with Executor(
            jobs=2, point_timeout=0.8, retries=2, fault_plan=plan,
            backoff=0.01,
        ) as ex:
            results = ex.run_points(pts)
        assert [r.summary() for r in results] == expected
        by_key = {e.key: e for e in ex.manifest.entries}
        assert by_key[pts[0].key()].status == "retried"
        assert by_key[pts[0].key()].attempts == 2

    def test_timeout_enforced_even_at_jobs1(self):
        """point_timeout implies process isolation: jobs=1 still bounds a
        hung point instead of sleeping with it."""
        pts = points(1)
        plan = FaultPlan(seed=1, slow_rate=1.0, slow_seconds=60)
        ex = Executor(jobs=1, point_timeout=0.5, keep_going=True,
                      fault_plan=plan)
        start = time.monotonic()
        results = ex.run_points(pts)
        assert time.monotonic() - start < 10
        assert isinstance(results[0], PointFailure)
        ex.close()


@dataclass(frozen=True)
class _TargetedHang(FaultPlan):
    """Picklable plan that hangs one specific point (optionally only on
    the given attempt numbers)."""

    target_key: str = ""
    only_attempts: tuple[int, ...] = field(default=())

    def decide(self, k, attempt):
        if k == self.target_key and (
            not self.only_attempts or attempt in self.only_attempts
        ):
            return "slow"
        return None

    def corrupts(self, k):
        return False


def _hang_exactly(key: str, attempts=None):
    return _TargetedHang(
        seed=0, slow_rate=1.0, slow_seconds=60,
        target_key=key, only_attempts=tuple(attempts or ()),
    )


# --------------------------------------------------------------------------
# worker crashes / pool breakage
# --------------------------------------------------------------------------


class TestWorkerCrash:
    def test_pool_breakage_retried_transparently(self):
        """Injected worker crashes (os._exit in the pool) break the pool;
        with retries, the lost points are resubmitted and results match
        the fault-free run exactly."""
        pts = points(4)
        expected = baseline_summaries(pts)
        plan = FaultPlan(seed=3, crash_rate=0.4)
        with Executor(jobs=2, retries=10, fault_plan=plan, backoff=0.01) as ex:
            results = ex.run_points(pts)
        assert [r.summary() for r in results] == expected
        assert ex.manifest.retried >= 1  # the chaos actually bit
        assert ex.manifest.failed == 0

    def test_crash_budget_exhaustion_raises_typed_error(self):
        pts = points(1)
        always_crash = FaultPlan(seed=1, crash_rate=1.0)
        ex = Executor(jobs=2, retries=1, fault_plan=always_crash, backoff=0.01)
        with pytest.raises(WorkerCrashError):
            ex.run_points(pts)
        assert ex.manifest.entries[0].status == "failed"
        assert ex.manifest.entries[0].attempts == 2  # 1 + 1 retry
        ex.close()

    def test_worker_killed_externally_mid_point(self):
        """SIGKILL from outside (OOM-killer shape): the pool breaks, the
        executor respawns it and the batch still completes."""
        pts = points(3)
        expected = baseline_summaries(pts)
        plan = _hang_exactly(pts[0].key(), attempts=(1,))
        with Executor(
            jobs=2, point_timeout=30, retries=2, fault_plan=plan,
            backoff=0.01,
        ) as ex:
            # arrange a hung first point, then snipe its worker while the
            # others run; BrokenProcessPool must be absorbed
            import threading

            def sniper():
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline:
                    pool = ex._pool
                    procs = list(getattr(pool, "_processes", {}).values()) \
                        if pool else []
                    if procs:
                        os.kill(procs[0].pid, signal.SIGKILL)
                        return
                    time.sleep(0.01)

            thread = threading.Thread(target=sniper)
            thread.start()
            results = ex.run_points(pts)
            thread.join()
        assert [r.summary() for r in results] == expected

    def test_serial_crash_classified_transient(self):
        """In-process injection degrades crash to WorkerCrashError, which
        the serial path retries just like the pool path."""
        pts = points(1)

        class _CrashOnce(FaultPlan):
            def decide(self, k, attempt):
                return "crash" if attempt == 1 else None

            def corrupts(self, k):
                return False

        expected = baseline_summaries(pts)
        ex = Executor(jobs=1, retries=1, fault_plan=_CrashOnce(seed=0),
                      backoff=0.01)
        results = ex.run_points(pts)
        assert [r.summary() for r in results] == expected
        assert ex.manifest.entries[0].status == "retried"


# --------------------------------------------------------------------------
# failure taxonomy
# --------------------------------------------------------------------------


class TestTaxonomy:
    def test_point_failure_refuses_result_attributes(self):
        failure = PointFailure(
            key="k" * 64, workload="w", protocol="ce", kind="timeout",
            attempts=2, message="m", seconds=1.0,
        )
        assert failure.ok is False
        with pytest.raises(PointFailedError):
            failure.cycles
        with pytest.raises(PointFailedError):
            failure.summary()

    def test_point_failure_pickles(self):
        import pickle

        failure = PointFailure(
            key="k", workload="w", protocol="ce", kind="crash",
            attempts=1, message="m", seconds=0.0,
        )
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.to_dict() == failure.to_dict()

    def test_transient_classification(self):
        import pickle as pkl

        assert is_transient(WorkerCrashError("x"))
        assert is_transient(pkl.PicklingError("x"))
        assert is_transient(OSError("x"))
        assert not is_transient(ValueError("x"))
        from repro.common.errors import SimulationError, TraceError

        assert not is_transient(TraceError("x"))
        assert not is_transient(SimulationError("x"))

    def test_deterministic_point_error_not_retried(self, monkeypatch):
        """A deterministic failure (bad trace) fails immediately — no
        retry budget is wasted re-deriving the same exception."""
        import repro.harness.executor as executor_mod

        calls = {"n": 0}

        def boom(point):
            calls["n"] += 1
            raise ValueError("deterministic")

        monkeypatch.setattr(executor_mod, "_simulate_point", boom)
        ex = Executor(jobs=1, retries=5, backoff=0.01)
        with pytest.raises(PointFailedError):
            ex.run_points(points(1))
        assert calls["n"] == 1
        assert ex.manifest.entries[0].status == "failed"


# --------------------------------------------------------------------------
# checkpoint / resume
# --------------------------------------------------------------------------


class TestCheckpointResume:
    def test_journal_records_every_settled_point(self, tmp_path):
        ck = Checkpoint(tmp_path / "ck.jsonl")
        cache = ResultCache(tmp_path / "cache")
        pts = points(3)
        with Executor(jobs=1, cache=cache, checkpoint=ck) as ex:
            ex.run_points(pts)
        summary = ck.summary()
        assert summary["points"] == 3
        assert summary["completed"] == 3
        assert summary["failed"] == 0
        # every frame is valid JSON carrying a final status, no torn tail
        scanned = durable.scan_frames((tmp_path / "ck.jsonl").read_bytes())
        assert scanned.torn_bytes == 0
        assert [json.loads(p)["status"] for p in scanned.payloads] == \
            ["miss"] * 3

    def test_resume_skips_known_failed_points(self, tmp_path):
        """With keep_going, a resumed sweep replays journaled failures
        instead of re-paying the timeout budget."""
        pts = points(3)
        hung_key = pts[2].key()
        plan = _hang_exactly(hung_key)
        ck = Checkpoint(tmp_path / "ck.jsonl")
        with Executor(
            jobs=2, cache=ResultCache(tmp_path / "cache"),
            point_timeout=0.8, keep_going=True, fault_plan=plan,
            backoff=0.01, checkpoint=ck,
        ) as ex:
            first = ex.run_points(pts)
        assert isinstance(first[2], PointFailure)

        resumed = Checkpoint(tmp_path / "ck.jsonl", resume=True)
        assert resumed.resumed_from == 3
        start = time.monotonic()
        with Executor(
            jobs=2, cache=ResultCache(tmp_path / "cache"),
            point_timeout=0.8, keep_going=True, fault_plan=plan,
            backoff=0.01, checkpoint=resumed,
        ) as ex2:
            second = ex2.run_points(pts)
        # no timeout was re-paid: two cache hits + one journal replay
        assert time.monotonic() - start < 0.8
        assert isinstance(second[2], PointFailure)
        assert second[2].message.startswith("resumed:")
        assert [e.status for e in ex2.manifest.entries] == \
            ["hit", "hit", "timeout"]
        assert second[0].summary() == first[0].summary()

    def test_resume_without_keep_going_reattempts_failures(self, tmp_path):
        """A plain resume is a request to try again: journaled failures
        are re-run, and a now-healthy point completes."""
        pts = points(1)
        ck = Checkpoint(tmp_path / "ck.jsonl")
        plan = FaultPlan(seed=1, slow_rate=1.0, slow_seconds=60)
        ex = Executor(
            jobs=2, cache=ResultCache(tmp_path / "cache"),
            point_timeout=0.5, keep_going=True, fault_plan=plan,
            checkpoint=ck,
        )
        assert isinstance(ex.run_points(pts)[0], PointFailure)
        ex.close()

        resumed = Checkpoint(tmp_path / "ck.jsonl", resume=True)
        with Executor(
            jobs=1, cache=ResultCache(tmp_path / "cache"),
            checkpoint=resumed,  # no fault plan: the "transient" cleared
        ) as ex2:
            result = ex2.run_points(pts)[0]
        assert result.summary()  # a real RunResult now

    def test_truncated_journal_tail_is_skipped(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ck = Checkpoint(path)
        ck.record("a" * 64, "miss", "w", "mesi", 0.1)
        frame = durable.encode_frame(
            json.dumps({"key": "b" * 64, "status": "miss"}).encode()
        )
        with path.open("ab") as handle:
            handle.write(frame[: len(frame) - 7])  # crash mid-append
        resumed = Checkpoint(path, resume=True)
        assert resumed.resumed_from == 1
        assert resumed.completed("a" * 64)
        assert resumed.torn_bytes == len(frame) - 7

    def test_legacy_jsonl_journal_loads(self, tmp_path):
        """Journals written by the pre-framed harness still resume."""
        path = tmp_path / "ck.jsonl"
        record = {"key": "a" * 64, "status": "miss"}
        path.write_text(json.dumps(record) + "\n" + '{"key": "bb", "sta')
        resumed = Checkpoint(path, resume=True)
        assert resumed.resumed_from == 1
        assert resumed.completed("a" * 64)


class TestDoubleCrashResume:
    """SIGKILL mid-sweep, resume, SIGKILL again, resume: the twice-
    interrupted sweep's output is byte-identical to the fault-free
    run's — on both simulation engines."""

    @pytest.mark.faultinject
    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_double_crash_resume_is_byte_identical(self, tmp_path, engine):
        from tests.test_crashsafe import run_driver

        env = {"REPRO_ENGINE": engine}
        clean = run_driver(tmp_path / "baseline", env_extra=env)
        assert clean.returncode == 0, clean.stderr

        cache_dir = tmp_path / "crashed"
        # crash 1: torn checkpoint append right after point 1 is cached
        first = run_driver(cache_dir, env_extra={
            **env,
            "REPRO_KILLPOINTS":
                "seed=9,rate=1,tear=0.5,sites=checkpoint:append",
        })
        assert first.returncode == durable.KILLPOINT_EXIT_STATUS
        assert len(list(cache_dir.rglob("*.pkl"))) == 1
        # crash 2 (different site): die after point 2's entry publishes
        second = run_driver(cache_dir, "--resume", env_extra={
            **env,
            "REPRO_KILLPOINTS":
                "seed=9,rate=1,sites=cache-entry:post-rename",
        })
        assert second.returncode == durable.KILLPOINT_EXIT_STATUS
        assert len(list(cache_dir.rglob("*.pkl"))) == 2  # progress survived
        final = run_driver(cache_dir, "--resume", env_extra=env)
        assert final.returncode == 0, final.stderr
        assert final.stdout == clean.stdout

    @pytest.mark.faultinject
    def test_engines_agree_byte_for_byte(self, tmp_path):
        from tests.test_crashsafe import run_driver

        outs = {}
        for engine in ("scalar", "batch"):
            proc = run_driver(
                tmp_path / engine, env_extra={"REPRO_ENGINE": engine}
            )
            assert proc.returncode == 0, proc.stderr
            outs[engine] = proc.stdout
        assert outs["scalar"] == outs["batch"]


# --------------------------------------------------------------------------
# satellite: shutdown semantics, jobs clamping, crash paths
# --------------------------------------------------------------------------


class TestLifecycle:
    def test_close_cancels_queued_points(self):
        """close() must drop the queue (cancel_futures) rather than
        draining dozens of queued simulation points.  The pool's
        management thread prefetches one queued item into the call
        queue, so close() may still wait out the running item plus one —
        but never the whole queue."""
        ex = Executor(jobs=1)
        pool = ex._ensure_pool()
        blocker = pool.submit(time.sleep, 0.4)
        queued = [pool.submit(time.sleep, 2) for _ in range(8)]
        start = time.monotonic()
        ex.close()
        # draining all eight would take 16s+; blocker + one prefetch is ~2.4s
        assert time.monotonic() - start < 10
        assert blocker.done()
        assert sum(f.cancelled() for f in queued) >= len(queued) - 1

    def test_exit_closes_pool_during_exception(self):
        ex = Executor(jobs=2)
        with pytest.raises(RuntimeError):
            with ex:
                ex._ensure_pool()
                raise RuntimeError("boom")
        assert ex._pool is None

    def test_terminate_reaps_hung_workers_fast(self):
        ex = Executor(jobs=1)
        pool = ex._ensure_pool()
        pool.submit(time.sleep, 300)
        time.sleep(0.1)
        start = time.monotonic()
        ex.terminate()
        assert time.monotonic() - start < 5
        assert ex._pool is None

    def test_keyboard_interrupt_leaves_manifest_consistent(self, monkeypatch):
        """Ctrl-C mid-batch: entries exist for settled points only, in
        submission order, and the interrupt still propagates."""
        import repro.harness.executor as executor_mod

        real = executor_mod._simulate_point
        calls = {"n": 0}

        def interrupting(point):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return real(point)

        monkeypatch.setattr(executor_mod, "_simulate_point", interrupting)
        ex = Executor(jobs=1)
        pts = points(3)
        with pytest.raises(KeyboardInterrupt):
            ex.run_points(pts)
        assert [e.status for e in ex.manifest.entries] == ["computed"]
        assert ex.manifest.entries[0].key == pts[0].key()


class TestJobsResolution:
    def test_auto_clamps_to_cpu_count(self):
        assert resolve_jobs("auto") == max(1, os.cpu_count() or 1)

    def test_string_numbers_accepted(self):
        assert resolve_jobs("3") == 3

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            resolve_jobs("many")

    def test_oversubscription_warns(self, capsys):
        Executor(jobs=(os.cpu_count() or 1) + 1)
        assert "exceeds" in capsys.readouterr().err

    def test_sane_jobs_stays_quiet(self, capsys):
        Executor(jobs=1)
        assert capsys.readouterr().err == ""


class TestCacheCrashPaths:
    def test_truncated_between_put_and_get(self, tmp_path):
        """A cache file truncated after put (power loss shape) is evicted
        on get, surfaced in the counter, and recomputed identically."""
        cache = ResultCache(tmp_path)
        pts = points(1)
        with Executor(jobs=1, cache=cache) as ex:
            cold = ex.run_points(pts)[0]
        entry = next(tmp_path.rglob("*.pkl"))
        blob = entry.read_bytes()
        entry.write_bytes(blob[: len(blob) // 3])

        fresh = ResultCache(tmp_path)
        with Executor(jobs=1, cache=fresh) as ex2:
            again = ex2.run_points(pts)[0]
        assert again.summary() == cold.summary()
        assert fresh.stats.corrupt_evictions == 1
        assert ex2.manifest.corrupt_evictions == 1
        assert [e.status for e in ex2.manifest.entries] == ["miss"]

    def test_corrupt_entry_helper_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        pts = points(1)
        key = pts[0].key()
        with Executor(jobs=1, cache=cache) as ex:
            ex.run_points(pts)
        assert cache.corrupt_entry(key)
        assert ResultCache(tmp_path).get(key) is None  # detected + evicted
        assert not cache.corrupt_entry("0" * 64)  # missing entry: no-op

    def test_manifest_reports_eviction_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        pts = points(2)
        with Executor(jobs=1, cache=cache) as ex:
            ex.run_points(pts)
        for entry in tmp_path.rglob("*.pkl"):
            entry.write_bytes(b"rot")
        fresh = ResultCache(tmp_path)
        with Executor(jobs=1, cache=fresh) as ex2:
            ex2.run_points(pts)
        data = ex2.manifest.to_dict()
        assert data["corrupt_evictions"] == 2
        assert data["failed"] == 0


class TestPartialRendering:
    def test_normalized_table_marks_failed_cells(self):
        """keep_going end to end through map_compare + table rendering:
        the failed protocol's cell says FAILED, everything else is
        numeric, and the geomean aggregates the survivors."""
        from repro.harness.experiments import DETECTORS, _normalized_table

        cfg = SystemConfig(num_cores=2)
        specs = [spec(seed=1), spec(seed=2)]
        ce_plus_key = SimPoint(
            cfg.with_protocol(DETECTORS[1]), specs[0]
        ).key()
        plan = _hang_exactly(ce_plus_key)
        with Executor(
            jobs=2, point_timeout=0.8, keep_going=True, fault_plan=plan,
            backoff=0.01,
        ) as ex:
            comparisons = {
                s.name + str(i): c
                for i, (s, c) in enumerate(
                    zip(specs, ex.map_compare([(cfg, s) for s in specs]))
                )
            }
        table = _normalized_table("t", comparisons, "cycles")
        rendered = table.render()
        assert rendered.count("FAILED") == 1
        geomean_row = table.rows[-1]
        assert geomean_row[0] == "geomean"
        assert all(isinstance(v, float) for v in geomean_row[1:])

    def test_multiseed_counts_failures(self):
        from repro.common.config import ProtocolKind
        from repro.harness import aggregate_normalized

        cfg_spec = WorkloadSpec.make(
            "lock-counter", num_threads=2, seed=2, scale=0.05
        )
        arc_key = SimPoint(
            SystemConfig(num_cores=2).with_protocol(ProtocolKind.ARC),
            cfg_spec,
        ).key()
        plan = _hang_exactly(arc_key)
        executor = Executor(
            jobs=2, point_timeout=0.8, keep_going=True, fault_plan=plan,
            backoff=0.01,
        )
        with executor:
            stats = aggregate_normalized(
                "lock-counter", "cycles", num_threads=2, scale=0.05,
                seeds=(1, 2), executor=executor,
            )
        assert stats[ProtocolKind.ARC].failures == 1
        assert stats[ProtocolKind.CE].failures == 0
        assert stats[ProtocolKind.CE].mean > 0


# --------------------------------------------------------------------------
# engine choice under chaos
# --------------------------------------------------------------------------


class TestEngineChaos:
    def test_batch_engine_chaos_run_byte_identical_to_scalar(self, monkeypatch):
        """A chaos plan (worker crashes + retries) with ``--engine batch``
        must settle on output byte-identical to a fault-free scalar run:
        the engine choice rides on $REPRO_ENGINE into the forked workers,
        and neither the fault injection nor the resubmission path may
        perturb what the batch engine computes."""
        from repro.common.config import ENGINE_ENV
        from repro.core.results import render_result

        pts = points(4)
        monkeypatch.setenv(ENGINE_ENV, "scalar")
        expected = [
            render_result(r) for r in Executor(jobs=1).run_points(pts)
        ]
        monkeypatch.setenv(ENGINE_ENV, "batch")
        plan = FaultPlan(seed=3, crash_rate=0.4)
        with Executor(jobs=2, retries=10, fault_plan=plan, backoff=0.01) as ex:
            results = ex.run_points(pts)
        assert [render_result(r) for r in results] == expected
        assert ex.manifest.retried >= 1  # the chaos actually bit
        assert ex.manifest.failed == 0
