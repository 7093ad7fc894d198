"""Deterministic fault-injection suite (the ISSUE acceptance criteria).

Marked ``faultinject``: CI runs these in a separate step so chaos
failures are distinguishable from ordinary regressions.  The two load-
bearing proofs:

* *byte-identical with retries* — a sweep run under seeded crashes,
  pickle failures and cache corruption, with a retry budget sized to the
  rates, produces exactly the same results as the fault-free run;
* *exact failure marking with keep-going* — a sweep with unretryable
  hangs completes within its timeout budget and annotates precisely the
  injected points as failed, nothing more, nothing less.
"""

from __future__ import annotations

import hashlib
import time

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError, PointFailure
from repro.harness import Executor, FaultPlan, ResultCache, SimPoint, WorkloadSpec
from repro.harness.faultinject import CRASH_EXIT_STATUS, apply_worker_fault

pytestmark = pytest.mark.faultinject


def make_points(n=6, threads=2, scale=0.05):
    cfg = SystemConfig(num_cores=threads)
    return [
        SimPoint(
            cfg,
            WorkloadSpec.make(
                "lock-counter", num_threads=threads, seed=seed, scale=scale
            ),
        )
        for seed in range(1, n + 1)
    ]


def digest(results):
    """Stable fingerprint of a result list (order-sensitive)."""
    blob = repr([r.summary() for r in results]).encode()
    return hashlib.sha256(blob).hexdigest()


# --------------------------------------------------------------------------
# plan mechanics
# --------------------------------------------------------------------------


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=7, crash_rate=0.3, slow_rate=0.2, pickle_rate=0.1)
        keys = [f"{i:064x}" for i in range(50)]
        first = [plan.decide(k, attempt=1) for k in keys]
        second = [plan.decide(k, attempt=1) for k in keys]
        assert first == second
        assert set(first) <= {None, "crash", "slow", "pickle"}
        assert any(first)  # the rates actually fire at this sample size

    def test_different_seeds_differ(self):
        keys = [f"{i:064x}" for i in range(50)]
        a = [FaultPlan(seed=1, crash_rate=0.5).decide(k, 1) for k in keys]
        b = [FaultPlan(seed=2, crash_rate=0.5).decide(k, 1) for k in keys]
        assert a != b

    def test_attempts_draw_independently(self):
        """Per-attempt independence is what makes retries converge: a
        point doomed on attempt 1 gets fresh odds on attempt 2."""
        plan = FaultPlan(seed=3, crash_rate=0.5)
        keys = [f"{i:064x}" for i in range(64)]
        fates = [(plan.decide(k, 1), plan.decide(k, 2)) for k in keys]
        assert any(a == "crash" and b is None for a, b in fates)

    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "seed=7,crash=0.2,slow=0.05,slow-seconds=5,corrupt=0.2,pickle=0.1"
        )
        assert plan.seed == 7
        assert plan.crash_rate == 0.2
        assert plan.slow_rate == 0.05
        assert plan.slow_seconds == 5
        assert plan.corrupt_rate == 0.2
        assert plan.pickle_rate == 0.1
        assert plan.active and plan.needs_pool
        assert "crash_rate=0.2" in plan.describe()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("crash=lots")
        with pytest.raises(ConfigError):
            FaultPlan.parse("explode=0.5")
        with pytest.raises(ConfigError):
            FaultPlan.parse("crash=1.5")

    def test_inert_plan_is_inactive(self):
        plan = FaultPlan(seed=9)
        assert not plan.active
        assert not plan.needs_pool
        assert plan.decide("f" * 64, 1) is None
        # inert plans must be free to apply
        apply_worker_fault(plan, "f" * 64, 1, in_pool=False)

    def test_crash_exit_status_is_distinctive(self):
        # the executor relies on this not colliding with common exits
        assert CRASH_EXIT_STATUS not in (0, 1, 2)


# --------------------------------------------------------------------------
# acceptance: byte-identical under chaos with retries
# --------------------------------------------------------------------------


class TestByteIdenticalWithRetries:
    def test_crash_and_pickle_chaos_converges(self):
        """N injected transient faults + a sized retry budget → results
        identical to the fault-free run, with the chaos visible only in
        the manifest's attempt counts."""
        pts = make_points(6)
        with Executor(jobs=2) as clean:
            baseline = clean.run_points(pts)
        plan = FaultPlan(seed=11, crash_rate=0.2, pickle_rate=0.2)
        with Executor(jobs=2, retries=10, fault_plan=plan, backoff=0.01) as ex:
            chaotic = ex.run_points(pts)
        assert digest(chaotic) == digest(baseline)
        assert ex.manifest.retried >= 1, "plan injected nothing; raise rates"
        assert ex.manifest.failed == 0
        assert all(not isinstance(r, PointFailure) for r in chaotic)

    def test_cache_corruption_chaos_converges(self, tmp_path):
        """Corrupt-on-write chaos: every poisoned entry is detected on
        read, evicted, recomputed — the warm reread still matches."""
        pts = make_points(4)
        with Executor(jobs=1) as clean:
            baseline = clean.run_points(pts)
        plan = FaultPlan(seed=5, corrupt_rate=1.0)
        cache = ResultCache(tmp_path)
        with Executor(jobs=1, cache=cache, fault_plan=plan) as writer:
            first = writer.run_points(pts)
        assert digest(first) == digest(baseline)
        reread = ResultCache(tmp_path)
        with Executor(jobs=1, cache=reread) as reader:
            second = reader.run_points(pts)
        assert digest(second) == digest(baseline)
        assert reader.manifest.corrupt_evictions == len(pts)
        assert [e.status for e in reader.manifest.entries] == ["miss"] * len(pts)

    def test_combined_chaos_with_cache(self, tmp_path):
        pts = make_points(5)
        with Executor(jobs=2) as clean:
            baseline = clean.run_points(pts)
        plan = FaultPlan(seed=2, crash_rate=0.15, pickle_rate=0.1,
                         corrupt_rate=0.3)
        with Executor(
            jobs=2, retries=10, fault_plan=plan, backoff=0.01,
            cache=ResultCache(tmp_path),
        ) as ex:
            chaotic = ex.run_points(pts)
        assert digest(chaotic) == digest(baseline)
        assert ex.manifest.failed == 0


# --------------------------------------------------------------------------
# acceptance: exact failure marking with keep-going
# --------------------------------------------------------------------------


class TestKeepGoingMarking:
    def test_hung_points_marked_exactly(self):
        """Seeded hangs + keep_going: the run finishes within the timeout
        budget (never the sleep duration) and the failure set equals the
        injected set exactly."""
        pts = make_points(6)
        plan = FaultPlan(seed=13, slow_rate=0.35, slow_seconds=60)
        injected = {
            p.key() for p in pts if plan.decide(p.key(), attempt=1) == "slow"
        }
        assert injected, "seed injected nothing; pick another"
        assert len(injected) < len(pts), "seed hung everything; pick another"
        start = time.monotonic()
        with Executor(
            jobs=2, point_timeout=1.0, keep_going=True, fault_plan=plan,
            backoff=0.01,
        ) as ex:
            results = ex.run_points(pts)
        elapsed = time.monotonic() - start
        assert elapsed < 30  # bounded by timeouts, not 60s sleeps

        failed = {r.key for r in results if isinstance(r, PointFailure)}
        assert failed == injected
        for result in results:
            if isinstance(result, PointFailure):
                assert result.kind == "timeout"
                assert result.attempts == 1
            else:
                assert result.summary()["cycles"] > 0
        manifest_failed = {
            e.key for e in ex.manifest.entries if e.status == "timeout"
        }
        assert manifest_failed == injected
        assert {f.key for f in ex.point_failures} == injected

    def test_results_align_with_submission_order(self):
        """Partial results stay positional: every surviving index holds
        the same result the fault-free run produced there."""
        pts = make_points(6)
        plan = FaultPlan(seed=13, slow_rate=0.35, slow_seconds=60)
        with Executor(jobs=2) as clean:
            baseline = clean.run_points(pts)
        with Executor(
            jobs=2, point_timeout=1.0, keep_going=True, fault_plan=plan,
            backoff=0.01,
        ) as ex:
            partial = ex.run_points(pts)
        for expected, got, point in zip(baseline, partial, pts):
            if isinstance(got, PointFailure):
                assert got.key == point.key()
            else:
                assert got.summary() == expected.summary()
