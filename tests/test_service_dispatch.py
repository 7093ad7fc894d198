"""Event-driven dispatch: an idle worker wakes when work becomes runnable.

Every test stretches the idle re-poll to 30 s, so anything that finishes
well inside a second was woken by the queue's ``runnable`` condition,
not by the fallback poll: a new submit, the revival of a ``FAILED`` job,
and ``WorkerPool.stop()``.  The stress test races a submitting thread
against workers that keep going idle; one lost wakeup would strand a
job for the full 30 s.
"""

from __future__ import annotations

import random
import sys
import time

import pytest

from repro.service import worker as worker_mod
from repro.service.models import JobSpec, JobState
from repro.service.queue import JobQueue
from repro.service.tracestore import TraceStore
from repro.service.worker import Worker, WorkerPool

#: generous against a 30 s fallback poll, tight against a lost wakeup
WAKE_LIMIT_S = 1.0


def spec(seed: int = 1, workload: str = "lock-counter") -> JobSpec:
    return JobSpec(
        kind="analyze", workload=workload, threads=2, seed=seed, scale=0.03
    )


@pytest.fixture
def make_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(worker_mod, "IDLE_POLL_SECONDS", 30.0)
    queue = JobQueue(tmp_path / "q.sqlite", lease_seconds=30.0)
    store = TraceStore.open(tmp_path / "traces")
    pools: list[WorkerPool] = []

    def make(workers: int = 2) -> WorkerPool:
        pool = WorkerPool(queue, store, tmp_path / "cache", workers=workers)
        pools.append(pool.start())
        # let every worker find the queue empty and start waiting
        time.sleep(0.2)
        return pool

    yield make
    for pool in pools:
        pool.stop(timeout=5.0)
    queue.close()


def test_submit_wakes_an_idle_worker(make_pool):
    pool = make_pool()
    start = time.monotonic()
    record, _ = pool.queue.submit(spec())
    done = pool.queue.wait_for(record.id, timeout=10.0)
    elapsed = time.monotonic() - start
    assert done is not None and done.state is JobState.DONE, done
    assert elapsed < WAKE_LIMIT_S, f"job took {elapsed:.2f} s to finish"


def test_resubmitting_a_failed_job_wakes_a_worker(make_pool):
    pool = make_pool()
    bad = spec(workload="no-such-workload")
    record, _ = pool.queue.submit(bad)
    failed = pool.queue.wait_for(record.id, timeout=10.0)
    assert failed is not None and failed.state is JobState.FAILED, failed
    time.sleep(0.2)  # both workers idle again

    start = time.monotonic()
    revived, deduped = pool.queue.submit(bad)
    assert deduped and revived.state is JobState.PENDING
    again = pool.queue.wait_for(record.id, timeout=10.0)
    elapsed = time.monotonic() - start
    assert again is not None and again.state is JobState.FAILED, again
    assert again.attempts == 1  # claimed afresh, not left pending
    assert elapsed < WAKE_LIMIT_S, f"revived job waited {elapsed:.2f} s"


def test_stop_wakes_idle_workers(make_pool):
    pool = make_pool()
    start = time.monotonic()
    pool.stop(timeout=10.0)
    elapsed = time.monotonic() - start
    assert not any(w.thread.is_alive() for w in pool.workers)
    assert elapsed < WAKE_LIMIT_S, f"stop took {elapsed:.2f} s"


def test_racing_submits_lose_no_wakeup(make_pool, monkeypatch):
    """200 submits, in bursts, race workers that are just going idle.

    Each burst must finish before the next is sent, so a lost wakeup
    is not rescued by a later submit: its job waits out the 30 s poll.
    """

    def settle(self, record):  # dispatch is under test, not execution
        self.executed += 1
        assert self.queue.complete(record.id, self.worker_id, "key")

    real_claim = JobQueue.claim

    def slow_empty_claim(self, worker_id):
        record = real_claim(self, worker_id)
        if record is None:
            # widen the gap between an empty claim and the wait, where
            # a wakeup would be lost if the two did not share the lock
            time.sleep(0.005)
        return record

    monkeypatch.setattr(Worker, "run_one", settle)
    monkeypatch.setattr(JobQueue, "claim", slow_empty_claim)
    pool = make_pool(workers=3)  # more workers than cores
    rng = random.Random(13)
    submitted = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        while submitted < 200:
            burst = [
                pool.queue.submit(spec(seed=submitted + i))[0].id
                for i in range(min(rng.randint(1, 4), 200 - submitted))
            ]
            submitted += len(burst)
            for job_id in burst:
                record = pool.queue.wait_for(job_id, timeout=WAKE_LIMIT_S)
                assert record.state is JobState.DONE, (submitted, record)
            # land the next burst while workers are claiming and going idle
            time.sleep(rng.random() * 0.002)
    finally:
        sys.setswitchinterval(interval)
    assert pool.queue.stats().done == 200
    assert pool.executed() == 200  # each job settled exactly once
