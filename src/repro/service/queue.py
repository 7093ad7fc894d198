"""SQLite-backed persistent priority job queue with lease-based claims.

The queue is the service's one source of truth about work: every state
transition is a single SQLite transaction (WAL mode, ``synchronous``
matched to the global fsync policy), so ``kill -9`` at any instant —
including at the seeded ``queue:*`` kill points the chaos harness fires
— leaves the previous committed state or the new one, never a torn row,
and never loses or duplicates a job.

State machine::

    PENDING --claim--> RUNNING --complete--> DONE
       ^                  |   \\--fail(terminal)--> FAILED
       |                  |
       +--lease expired---+--attempts exhausted--> TIMEOUT
            (requeue)

Claims are *leases*: a worker owns a job only until ``deadline``, and
must :meth:`~JobQueue.heartbeat` to keep it.  A worker that dies simply
stops heartbeating; :meth:`~JobQueue.expire_leases` (run by every claim
and by ``repro-fsck``) re-queues the orphaned job — or parks it as
``TIMEOUT`` once its attempts are spent, so a poison job cannot loop
forever.  Completion is owner-checked: a worker whose lease expired
while it computed gets its :meth:`~JobQueue.complete` rejected, which
is what keeps completion *exactly-once* even when two workers end up
computing the same job (results are content-addressed, so the loser's
work is simply a no-op cache store).

Scheduling: jobs order by ``(effective priority, cost, seq)`` where
``cost`` is the spec's work estimate — cheap, conflict-light jobs go
first for latency, the BUNDLEP-style heuristic — and effective priority
*ages*: a job's priority number drops one band per ``aging_seconds``
waited, so bulk jobs cannot starve behind a flood of urgent ones.

Submission is idempotent: a spec's job id is the SHA-256 of its
canonical work dict, so resubmitting identical work returns the
existing job (and, when it's already ``DONE``, its cached result).
Resubmitting a ``FAILED``/``TIMEOUT`` job revives it with a fresh
attempt budget.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path

from ..common import durable
from ..common.errors import ServiceError
from .models import JobRecord, JobSpec, JobState, QueueStats

#: schema version stamped into the DB; a mismatch refuses to open
#: rather than guessing at migration
QUEUE_SCHEMA = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    id TEXT PRIMARY KEY,
    spec TEXT NOT NULL,
    state TEXT NOT NULL,
    priority INTEGER NOT NULL,
    cost INTEGER NOT NULL,
    attempts INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    created REAL NOT NULL,
    updated REAL NOT NULL,
    owner TEXT,
    deadline REAL,
    result_key TEXT,
    error TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_sched
    ON jobs (state, priority, cost, seq);
"""

_COLUMNS = (
    "id, spec, state, priority, cost, attempts, max_attempts, seq, "
    "created, updated, owner, deadline, result_key, error"
)


def _record(row: sqlite3.Row | tuple) -> JobRecord:
    (job_id, spec, state, priority, cost, attempts, max_attempts, seq,
     created, updated, owner, deadline, result_key, error) = row
    return JobRecord(
        id=job_id,
        spec=JobSpec.from_dict(json.loads(spec)),
        state=JobState(state),
        priority=priority,
        cost=cost,
        attempts=attempts,
        max_attempts=max_attempts,
        seq=seq,
        created=created,
        updated=updated,
        owner=owner,
        deadline=deadline,
        result_key=result_key,
        error=error,
    )


class JobQueue:
    """The persistent queue; one instance per process, many per DB.

    Thread-safe (an internal lock serializes transactions) and
    multi-process-safe (SQLite's own locking plus a busy timeout).
    ``clock`` is injectable so the state-machine property tests can
    drive lease expiry deterministically.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        lease_seconds: float = 30.0,
        max_attempts: int = 3,
        aging_seconds: float = 60.0,
        clock=time.time,
    ):
        if lease_seconds <= 0:
            raise ServiceError(f"lease_seconds must be > 0, got {lease_seconds}")
        if max_attempts < 1:
            raise ServiceError(f"max_attempts must be >= 1, got {max_attempts}")
        if aging_seconds <= 0:
            raise ServiceError(f"aging_seconds must be > 0, got {aging_seconds}")
        self.path = Path(path)
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.aging_seconds = aging_seconds
        self.clock = clock
        self._lock = threading.RLock()
        self._terminal = threading.Condition(self._lock)
        #: notified once per job that a committed transition makes
        #: runnable (new or revived submit, transient-failure requeue,
        #: lapsed-lease requeue); an idle claimer claims and waits on it
        #: under one hold of the queue lock, so no wakeup falls between
        self.runnable = threading.Condition(self._lock)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(
            str(self.path), check_same_thread=False, isolation_level=None
        )
        self._conn.execute("PRAGMA busy_timeout = 10000")
        self._conn.execute("PRAGMA journal_mode = WAL")
        # FULL matches the durable layer's fsync discipline; with
        # $REPRO_NO_FSYNC (tmpfs tests, benches) skip the syncs the same
        # way atomic_replace does
        sync = "FULL" if durable.fsync_enabled() else "OFF"
        self._conn.execute(f"PRAGMA synchronous = {sync}")
        with self._lock:
            # executescript commits implicitly, so DDL runs in
            # autocommit (idempotent CREATE IF NOT EXISTS) and the
            # schema stamp gets its own explicit transaction
            self._conn.executescript(_SCHEMA)
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    "SELECT value FROM meta WHERE key = 'schema'"
                ).fetchone()
                if row is None:
                    self._conn.execute(
                        "INSERT INTO meta (key, value) VALUES ('schema', ?)",
                        (str(QUEUE_SCHEMA),),
                    )
                elif int(row[0]) != QUEUE_SCHEMA:
                    raise ServiceError(
                        f"queue DB {self.path} has schema {row[0]}, "
                        f"this build speaks {QUEUE_SCHEMA}"
                    )
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._commit("open")

    # -- transaction plumbing -------------------------------------------

    def _commit(self, op: str) -> None:
        """Commit the open transaction, honoring seeded kill points.

        A kill *before* the commit rolls the whole transition back on
        the next open (SQLite's journal); a kill *after* persists it —
        the two crash shapes every transition must be old-or-new under.
        """
        durable.kill_point(f"queue:{op}:pre-commit")
        self._conn.execute("COMMIT")
        durable.kill_point(f"queue:{op}:post-commit")

    def _notify(self, transitions: list[tuple[str, JobState]]) -> None:
        """Wake waiters for committed ``(job id, new state)`` transitions."""
        requeued = sum(state is JobState.PENDING for _, state in transitions)
        if requeued:
            self.runnable.notify(requeued)
        if any(state.terminal for _, state in transitions):
            self._terminal.notify_all()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ------------------------------------------------------

    def submit(self, spec: JobSpec) -> tuple[JobRecord, bool]:
        """Enqueue ``spec``; returns ``(record, deduped)``.

        ``deduped`` is True when identical work was already queued (or
        finished) and the existing job was returned.  A terminal
        ``FAILED``/``TIMEOUT`` job is revived instead: state back to
        ``PENDING`` with a fresh attempt budget.
        """
        job_id = spec.job_id()
        now = self.clock()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    f"SELECT {_COLUMNS} FROM jobs WHERE id = ?", (job_id,)
                ).fetchone()
                if row is not None:
                    record = _record(row)
                    if record.state in (JobState.FAILED, JobState.TIMEOUT):
                        self._conn.execute(
                            "UPDATE jobs SET state = ?, attempts = 0, "
                            "owner = NULL, deadline = NULL, error = NULL, "
                            "updated = ? WHERE id = ?",
                            (JobState.PENDING.value, now, job_id),
                        )
                        self._commit("submit")
                        self.runnable.notify()
                        return self._get_locked(job_id), True
                    self._commit("submit")
                    return record, True
                seq = self._conn.execute(
                    "SELECT COALESCE(MAX(seq), 0) + 1 FROM jobs"
                ).fetchone()[0]
                self._conn.execute(
                    "INSERT INTO jobs (id, spec, state, priority, cost, "
                    "attempts, max_attempts, seq, created, updated) "
                    "VALUES (?, ?, ?, ?, ?, 0, ?, ?, ?, ?)",
                    (
                        job_id,
                        json.dumps(spec.to_dict(), sort_keys=True),
                        JobState.PENDING.value,
                        spec.default_priority(),
                        spec.cost_estimate(),
                        max(self.max_attempts, spec.retries + 1),
                        seq,
                        now,
                        now,
                    ),
                )
                self._commit("submit")
                self.runnable.notify()
                return self._get_locked(job_id), False
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    # -- claiming / leases ----------------------------------------------

    def expire_leases(self, *, _in_txn: bool = False) -> list[tuple[str, JobState]]:
        """Re-queue (or park as TIMEOUT) every job whose lease lapsed.

        Returns the affected ``(job id, new state)`` pairs.  Run by
        every claim, by the worker pool's idle loop, and by
        ``repro-fsck --repair`` against a downed service's DB.
        """
        now = self.clock()
        with self._lock:
            if not _in_txn:
                self._conn.execute("BEGIN IMMEDIATE")
            try:
                expired = self._conn.execute(
                    "SELECT id, attempts, max_attempts FROM jobs "
                    "WHERE state = ? AND deadline < ? ORDER BY seq",
                    (JobState.RUNNING.value, now),
                ).fetchall()
                transitions: list[tuple[str, JobState]] = []
                for job_id, attempts, max_attempts in expired:
                    new_state = (
                        JobState.TIMEOUT if attempts >= max_attempts
                        else JobState.PENDING
                    )
                    error = (
                        f"lease expired after {attempts} attempt(s)"
                        if new_state is JobState.TIMEOUT else None
                    )
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, owner = NULL, "
                        "deadline = NULL, error = ?, updated = ? WHERE id = ?",
                        (new_state.value, error, now, job_id),
                    )
                    transitions.append((job_id, new_state))
                if not _in_txn:
                    self._commit("expire")
                    self._notify(transitions)
                return transitions
            except BaseException:
                if not _in_txn:
                    self._conn.execute("ROLLBACK")
                raise

    def claim(self, worker_id: str) -> JobRecord | None:
        """Atomically lease the best runnable job for ``worker_id``.

        Expired leases are reclaimed first (same transaction), then the
        scheduler picks by aged priority, then cost, then submission
        order.  Returns None when nothing is runnable.
        """
        now = self.clock()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                expired = self.expire_leases(_in_txn=True)
                row = self._conn.execute(
                    "SELECT id FROM jobs WHERE state = ? "
                    "ORDER BY MAX(priority - CAST((? - created) / ? AS INTEGER), 0),"
                    " cost, seq LIMIT 1",
                    (JobState.PENDING.value, now, self.aging_seconds),
                ).fetchone()
                if row is None:
                    self._commit("claim")
                    self._notify(expired)
                    return None
                job_id = row[0]
                self._conn.execute(
                    "UPDATE jobs SET state = ?, owner = ?, deadline = ?, "
                    "attempts = attempts + 1, updated = ? WHERE id = ?",
                    (
                        JobState.RUNNING.value, worker_id,
                        now + self.lease_seconds, now, job_id,
                    ),
                )
                self._commit("claim")
                self._notify(expired)
                return self._get_locked(job_id)
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def heartbeat(self, job_id: str, worker_id: str) -> bool:
        """Extend ``worker_id``'s lease; False means the lease is lost.

        A False return tells the worker its job was re-queued from
        under it (it stalled past the lease): it should abandon the
        result — completion would be rejected anyway.
        """
        now = self.clock()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                cursor = self._conn.execute(
                    "UPDATE jobs SET deadline = ?, updated = ? "
                    "WHERE id = ? AND state = ? AND owner = ? AND deadline >= ?",
                    (
                        now + self.lease_seconds, now, job_id,
                        JobState.RUNNING.value, worker_id, now,
                    ),
                )
                self._commit("heartbeat")
                return cursor.rowcount == 1
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    # -- settlement ------------------------------------------------------

    def complete(self, job_id: str, worker_id: str, result_key: str) -> bool:
        """RUNNING → DONE, owner-checked; False when the lease was lost.

        The caller must have journaled the result durably (the
        content-addressed cache store) *before* calling — the crash
        between store and complete re-runs the job into a cache hit,
        which is the no-loss/no-duplication contract.
        """
        now = self.clock()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                cursor = self._conn.execute(
                    "UPDATE jobs SET state = ?, result_key = ?, owner = NULL, "
                    "deadline = NULL, error = NULL, updated = ? "
                    "WHERE id = ? AND state = ? AND owner = ?",
                    (
                        JobState.DONE.value, result_key, now, job_id,
                        JobState.RUNNING.value, worker_id,
                    ),
                )
                self._commit("complete")
                done = cursor.rowcount == 1
                if done:
                    self._terminal.notify_all()
                return done
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def fail(
        self, job_id: str, worker_id: str, error: str, *, transient: bool
    ) -> JobState | None:
        """Settle a failed attempt; returns the new state (None = lease lost).

        Transient failures re-queue while attempts remain (the typed
        retry taxonomy of :func:`repro.common.errors.is_transient`);
        terminal failures — or an exhausted budget — park the job as
        ``FAILED`` with the error recorded for the client.
        """
        now = self.clock()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    "SELECT attempts, max_attempts FROM jobs "
                    "WHERE id = ? AND state = ? AND owner = ?",
                    (job_id, JobState.RUNNING.value, worker_id),
                ).fetchone()
                if row is None:
                    self._commit("fail")
                    return None
                attempts, max_attempts = row
                new_state = (
                    JobState.PENDING
                    if transient and attempts < max_attempts
                    else JobState.FAILED
                )
                self._conn.execute(
                    "UPDATE jobs SET state = ?, owner = NULL, deadline = NULL, "
                    "error = ?, updated = ? WHERE id = ?",
                    (new_state.value, error, now, job_id),
                )
                self._commit("fail")
                self._notify([(job_id, new_state)])
                return new_state
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    # -- queries ---------------------------------------------------------

    def _get_locked(self, job_id: str) -> JobRecord:
        row = self._conn.execute(
            f"SELECT {_COLUMNS} FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise ServiceError(f"no such job: {job_id}")
        return _record(row)

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            row = self._conn.execute(
                f"SELECT {_COLUMNS} FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return _record(row) if row is not None else None

    def list_jobs(
        self, state: JobState | None = None, limit: int = 100
    ) -> list[JobRecord]:
        query = f"SELECT {_COLUMNS} FROM jobs"
        params: tuple = ()
        if state is not None:
            query += " WHERE state = ?"
            params = (state.value,)
        query += " ORDER BY seq DESC LIMIT ?"
        with self._lock:
            rows = self._conn.execute(query, params + (limit,)).fetchall()
        return [_record(row) for row in rows]

    def stats(self) -> QueueStats:
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        counts = {state: count for state, count in rows}
        return QueueStats(
            pending=counts.get(JobState.PENDING.value, 0),
            running=counts.get(JobState.RUNNING.value, 0),
            done=counts.get(JobState.DONE.value, 0),
            failed=counts.get(JobState.FAILED.value, 0),
            timeout=counts.get(JobState.TIMEOUT.value, 0),
        )

    def wait_for(self, job_id: str, timeout: float) -> JobRecord | None:
        """Long-poll helper: block until ``job_id`` is terminal.

        Wakes on in-process completions (the worker pool notifies);
        falls back to bounded re-polls so completions written by
        *another* process sharing the DB are seen within 0.25 s.
        Returns the record in whatever state the wait ended.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        with self._terminal:
            while True:
                record = self._get_locked(job_id) if self._exists(job_id) else None
                if record is None or record.state.terminal:
                    return record
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return record
                self._terminal.wait(min(remaining, 0.25))

    def _exists(self, job_id: str) -> bool:
        return self._conn.execute(
            "SELECT 1 FROM jobs WHERE id = ?", (job_id,)
        ).fetchone() is not None
