"""Drop-in traced synchronization objects.

These mirror the ``threading`` API shapes (``with lock:``,
``barrier.wait()``, ``condition.wait/notify``) but synchronize through
the session's deterministic scheduler and record ACQUIRE / RELEASE /
BARRIER trace events — the region boundaries of the captured program.

Semantics map onto the simulator's exactly:

* a lock acquire is recorded at *grant* time (the simulator charges the
  acquire when the lock is obtained, not when the thread starts
  waiting); waiters are granted in FIFO order;
* a barrier records one BARRIER event per arriving thread per episode;
* a condition ``wait`` records the lock hand-off it really performs —
  a RELEASE at wait time and an ACQUIRE when the woken thread regains
  the lock.  No extra event kind is needed: condition waits are region
  boundaries precisely because they release and re-acquire.
"""

from __future__ import annotations

from ..common.errors import CaptureError


class TracedLock:
    """A traced, non-reentrant FIFO mutex."""

    __slots__ = ("_session", "lock_id", "_holder", "_waiters")

    def __init__(self, session, lock_id: int):
        self._session = session
        self.lock_id = lock_id
        self._holder: int | None = None
        self._waiters: list[int] = []

    @property
    def holder(self) -> int | None:
        return self._holder

    def acquire(self) -> None:
        session = self._session
        tid = session.current_tid()
        scheduler = session.scheduler
        # a sync op is a switch point: let contention actually arise
        scheduler.yield_control(tid)
        if self._holder is None:
            self._grant(tid)
            return
        if self._holder == tid:
            raise CaptureError(
                f"thread {tid} re-acquired traced lock {self.lock_id} "
                "(locks are not reentrant)"
            )
        self._waiters.append(tid)
        scheduler.block(tid)
        # unblocked by the releasing thread, which already made us holder
        if self._holder != tid:  # pragma: no cover - scheduler invariant
            raise CaptureError(
                f"lock {self.lock_id} woke thread {tid} without granting it"
            )
        session.recorder_for(tid).acquire(self.lock_id)

    def _grant(self, tid: int) -> None:
        self._holder = tid
        self._session.recorder_for(tid).acquire(self.lock_id)

    def release(self) -> None:
        session = self._session
        tid = session.current_tid()
        if self._holder != tid:
            raise CaptureError(
                f"thread {tid} released traced lock {self.lock_id} held by "
                f"{self._holder}"
            )
        session.recorder_for(tid).release(self.lock_id)
        self._pass_on()
        session.scheduler.yield_control(tid)

    def _pass_on(self) -> None:
        """Hand the lock to the first waiter (or free it)."""
        if self._waiters:
            heir = self._waiters.pop(0)
            self._holder = heir
            self._session.scheduler.make_ready(heir)
        else:
            self._holder = None

    def __enter__(self) -> "TracedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"TracedLock(id={self.lock_id}, holder={self._holder})"


class TracedBarrier:
    """A traced cyclic barrier over ``parties`` threads."""

    __slots__ = ("_session", "barrier_id", "parties", "_arrived")

    def __init__(self, session, barrier_id: int, parties: int):
        if parties <= 0 or parties > session.num_threads:
            raise CaptureError(
                f"barrier parties must be 1..{session.num_threads}, got {parties}"
            )
        self._session = session
        self.barrier_id = barrier_id
        self.parties = parties
        self._arrived: list[int] = []

    def wait(self) -> None:
        session = self._session
        tid = session.current_tid()
        if tid in self._arrived:
            raise CaptureError(
                f"thread {tid} re-entered barrier {self.barrier_id} episode"
            )
        session.recorder_for(tid).barrier(self.barrier_id)
        self._arrived.append(tid)
        if len(self._arrived) == self.parties:
            # episode complete: wake everyone in arrival order
            waiters = self._arrived[:-1]
            self._arrived = []
            for waiter in waiters:
                session.scheduler.make_ready(waiter)
            session.scheduler.yield_control(tid)
        else:
            session.scheduler.block(tid)

    def __repr__(self) -> str:
        return (
            f"TracedBarrier(id={self.barrier_id}, parties={self.parties}, "
            f"arrived={self._arrived})"
        )


class TracedCondition:
    """A traced condition variable bound to a :class:`TracedLock`.

    As with ``threading.Condition``, the lock must be held around
    :meth:`wait` / :meth:`notify`, and :meth:`wait` should sit in a
    while-predicate loop.  Waiters move to the lock's FIFO queue on
    notify, so wake-ups and lock re-grants are deterministic.
    """

    __slots__ = ("_session", "lock", "_waiters")

    def __init__(self, session, lock: TracedLock):
        self._session = session
        self.lock = lock
        self._waiters: list[int] = []

    def _require_lock(self, tid: int, op: str) -> None:
        if self.lock.holder != tid:
            raise CaptureError(
                f"condition {op} without holding lock {self.lock.lock_id}"
            )

    def wait(self) -> None:
        session = self._session
        tid = session.current_tid()
        self._require_lock(tid, "wait")
        # really releases the lock: record it and hand the lock on
        session.recorder_for(tid).release(self.lock.lock_id)
        self._waiters.append(tid)
        self.lock._pass_on()
        session.scheduler.block(tid)
        # a notifier moved us to the lock queue and a releaser granted it
        if self.lock.holder != tid:  # pragma: no cover - scheduler invariant
            raise CaptureError(
                f"condition woke thread {tid} without the lock"
            )
        session.recorder_for(tid).acquire(self.lock.lock_id)

    def notify(self, n: int = 1) -> None:
        tid = self._session.current_tid()
        self._require_lock(tid, "notify")
        for _ in range(min(n, len(self._waiters))):
            waiter = self._waiters.pop(0)
            # the waiter contends for the lock: it stays parked on the
            # lock's FIFO queue (the notifier holds the lock right now)
            # until a release grants it
            self.lock._waiters.append(waiter)

    def notify_all(self) -> None:
        self.notify(len(self._waiters))

    def __repr__(self) -> str:
        return (
            f"TracedCondition(lock={self.lock.lock_id}, waiters={self._waiters})"
        )
