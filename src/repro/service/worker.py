"""In-process worker pool: claims jobs, executes, journals, acknowledges.

Each worker thread loops ``claim → execute → journal → complete``:

* **claim** takes a lease (:meth:`~repro.service.queue.JobQueue.claim`);
  a pool-level heartbeat thread extends every live worker's lease at a
  third of the lease interval, so only a genuinely dead or wedged
  worker loses one.  A worker that finds nothing runnable waits on the
  queue's ``runnable`` condition, which every transition that makes a
  job runnable notifies, so dispatch is event-driven; the claim and the
  wait share one hold of the queue lock, so a submit cannot slip in
  between and go unnoticed.
* **execute** goes through :func:`repro.service.jobs.execute_job` with
  an :class:`~repro.harness.executor.Executor` built from the job's own
  resilience knobs — per-job wall-clock timeout (process-pool enforced),
  typed transient retries — plus the service's shared result cache, so
  identical simulation points are never computed twice.
* **journal** stores the result payload in the content-addressed cache
  (an fsync'd atomic replace) *before* acknowledging; a crash between
  the two re-runs the job into a pure cache hit.
* **complete** is owner-checked by the queue: if the lease was lost
  mid-execution the acknowledgement is rejected and the re-queued job's
  next runner finds the journaled result — completion stays
  exactly-once, work stays idempotent.

Failures map onto the queue through the harness's typed taxonomy:
:func:`~repro.common.errors.is_transient` failures re-queue (attempts
permitting), everything else — including a spent per-job timeout — parks
the job as ``FAILED`` with the error recorded for the client.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import traceback

from ..common.errors import (
    PointTimeoutError,
    ReproError,
    ServiceError,
    is_transient,
)
from ..harness.executor import Executor
from ..harness.result_cache import ResultCache
from .jobs import execute_job, result_key
from .models import JobRecord
from .queue import JobQueue
from .tracestore import TraceStore

#: upper bound on an idle worker's wait for a wakeup.  In-process
#: submits and requeues wake it at once; this re-poll only catches work
#: that arrives without a notification: jobs another process writes
#: into the shared DB, and leases that lapse (reclaimed by the claim)
IDLE_POLL_SECONDS = 0.05


class Worker:
    """One claim/execute/journal/complete loop on its own thread."""

    def __init__(
        self,
        index: int,
        queue: JobQueue,
        store: TraceStore,
        cache_root,
        stop: threading.Event,
        *,
        quiet: bool = True,
    ):
        self.worker_id = f"worker-{os.getpid()}-{index}"
        self.queue = queue
        self.store = store
        # a private cache instance over the shared root: entry files are
        # shared (content-addressed, atomic), hit/miss counters are not
        self.cache = ResultCache(cache_root)
        self._stop = stop
        self._quiet = quiet
        self._lock = threading.Lock()
        self._current: str | None = None
        self.executed = 0
        self.thread = threading.Thread(
            target=self._loop, name=self.worker_id, daemon=True
        )

    @property
    def current_job(self) -> str | None:
        with self._lock:
            return self._current

    def _set_current(self, job_id: str | None) -> None:
        with self._lock:
            self._current = job_id

    def _log(self, message: str) -> None:
        if not self._quiet:
            print(f"[{self.worker_id}: {message}]", file=sys.stderr)

    def _loop(self) -> None:
        runnable = self.queue.runnable
        while True:
            with runnable:
                # stop is set under this lock too, so a stop that lands
                # between the check and the wait still wakes us
                if self._stop.is_set():
                    return
                try:
                    record = self.queue.claim(self.worker_id)
                except ServiceError:
                    return  # queue closed under us during shutdown
                if record is None:
                    runnable.wait(IDLE_POLL_SECONDS)
                    continue
            self._set_current(record.id)
            try:
                self.run_one(record)
            finally:
                self._set_current(None)

    def run_one(self, record: JobRecord) -> None:
        """Execute one leased job to settlement (public for tests)."""
        spec = record.spec
        rkey = result_key(spec)
        payload = self.cache.get(rkey, expect=dict)
        if payload is None:
            try:
                with self._job_executor(spec) as executor:
                    payload = execute_job(
                        spec, store=self.store, executor=executor
                    )
            except Exception as exc:  # noqa: B902 - settle, don't unwind
                self._settle_failure(record, exc)
                return
            # journal durably BEFORE acknowledging: the crash between
            # the two replays into a cache hit, never into lost work
            self.cache.put(rkey, payload)
        self.executed += 1
        if not self.queue.complete(record.id, self.worker_id, rkey):
            self._log(f"lease lost for {record.id[:12]}; result journaled")

    def _job_executor(self, spec) -> Executor:
        return Executor(
            jobs=1,
            cache=self.cache,
            point_timeout=spec.timeout,
            retries=spec.retries,
        )

    def _settle_failure(self, record: JobRecord, exc: Exception) -> None:
        transient = is_transient(exc) and not isinstance(exc, PointTimeoutError)
        kind = type(exc).__name__
        detail = str(exc) if isinstance(exc, ReproError) else (
            f"{kind}: {exc}"
        )
        if not isinstance(exc, ReproError):
            self._log(
                "unexpected failure:\n"
                + "".join(traceback.format_exception(exc))
            )
        self.queue.fail(
            record.id, self.worker_id, detail, transient=transient
        )


class WorkerPool:
    """N worker threads plus the lease heartbeat over one queue."""

    def __init__(
        self,
        queue: JobQueue,
        store: TraceStore,
        cache_root,
        *,
        workers: int = 2,
        quiet: bool = True,
    ):
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        self.queue = queue
        self._stop = threading.Event()
        self.workers = [
            Worker(i, queue, store, cache_root, self._stop, quiet=quiet)
            for i in range(workers)
        ]
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop, name="lease-heartbeat", daemon=True
        )
        self._started = False

    def start(self) -> "WorkerPool":
        self._started = True
        for worker in self.workers:
            worker.thread.start()
        self._heartbeat.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        with self.queue.runnable:
            self._stop.set()
            self.queue.runnable.notify_all()
        if not self._started:
            return
        deadline = time.monotonic() + timeout
        for worker in self.workers:
            worker.thread.join(max(0.0, deadline - time.monotonic()))
        self._heartbeat.join(max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _heartbeat_loop(self) -> None:
        interval = self.queue.lease_seconds / 3.0
        while not self._stop.wait(interval):
            for worker in self.workers:
                job_id = worker.current_job
                if job_id is not None:
                    try:
                        self.queue.heartbeat(job_id, worker.worker_id)
                    except ServiceError:
                        return

    # -- aggregate accounting -------------------------------------------

    def cache_stats(self) -> dict:
        totals = {"hits": 0, "misses": 0, "stores": 0, "corrupt_evictions": 0}
        for worker in self.workers:
            stats = worker.cache.stats
            totals["hits"] += stats.hits
            totals["misses"] += stats.misses
            totals["stores"] += stats.stores
            totals["corrupt_evictions"] += stats.corrupt_evictions
        return totals

    def executed(self) -> int:
        return sum(worker.executed for worker in self.workers)

    def drain(self, timeout: float = 60.0, poll: float = 0.05) -> bool:
        """Block until the queue holds no runnable work (tests, drivers).

        Expired leases are reclaimed while draining, so a drain after a
        crash-restart converges without outside help.  Returns False on
        timeout.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.queue.expire_leases()
            stats = self.queue.stats()
            if stats.depth == 0:
                return True
            time.sleep(poll)
        return False
