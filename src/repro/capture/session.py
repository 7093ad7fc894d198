"""The capture session: instrument, run, and lift into a Program.

:class:`CaptureSession` is the public entry point of the capture
subsystem.  A session owns

* a seeded address allocator (line-aligned bump allocation over the
  same :class:`~repro.mem.address.AddressMap` geometry the simulator
  uses, with seeded inter-allocation padding);
* one event recorder per thread (append-only column lists with the
  same well-formedness rules as :class:`~repro.trace.builder.TraceBuilder`:
  sizes 1..8, line-straddle splitting, lock discipline);
* the deterministic cooperative scheduler
  (:mod:`repro.capture.scheduler`) that serializes the instrumented
  threads so repeated captures are byte-identical;
* factories for the traced shared state
  (:class:`~repro.capture.proxies.TracedArray`,
  :class:`~repro.capture.proxies.TracedStruct`) and sync objects
  (:class:`~repro.capture.sync.TracedLock` /
  :class:`~repro.capture.sync.TracedBarrier` /
  :class:`~repro.capture.sync.TracedCondition`).

SFR boundaries are not annotated by the captured program — they fall
out of the recorded sync events exactly as in
:mod:`repro.trace.regions`: every acquire/release/barrier ends the
current region.

Typical use::

    session = CaptureSession(num_threads=4, seed=1, name="histogram")
    data = session.array(4096, name="data")
    lock = session.lock()
    done = session.barrier()

    def worker(tid):
        ...read data[i], take lock, wait on done...

    program = session.run(worker)          # an ordinary trace.Program
"""

from __future__ import annotations

import threading

import numpy as np

from ..common.errors import CaptureError
from ..common.rng import make_rng
from ..mem.address import AddressMap
from ..trace.events import (
    ACQUIRE,
    BARRIER,
    EVENT_DTYPE,
    MAX_ACCESS_SIZE,
    READ,
    RELEASE,
    WRITE,
    ThreadTrace,
)
from ..trace.program import Program
from ..trace.validate import validate_program
from .proxies import TracedArray, TracedStruct
from .scheduler import CooperativeScheduler
from .sync import TracedBarrier, TracedCondition, TracedLock

#: base of the captured address space (matches the synthetic allocator)
BASE_ADDRESS = 0x10000

_MAX_GAP = 0xFFFF


class _ThreadRecorder:
    """Append-only event columns for one captured thread."""

    __slots__ = (
        "line_size",
        "kinds",
        "addrs",
        "sizes",
        "sync_ids",
        "gaps",
        "held",
        "pending_gap",
    )

    def __init__(self, line_size: int):
        self.line_size = line_size
        self.kinds: list[int] = []
        self.addrs: list[int] = []
        self.sizes: list[int] = []
        self.sync_ids: list[int] = []
        self.gaps: list[int] = []
        self.held: list[int] = []
        self.pending_gap = 0

    def _append(self, kind: int, addr: int, size: int, sync_id: int) -> None:
        self.kinds.append(kind)
        self.addrs.append(addr)
        self.sizes.append(size)
        self.sync_ids.append(sync_id)
        self.gaps.append(self.pending_gap)
        self.pending_gap = 0

    def access(self, kind: int, addr: int, size: int) -> None:
        if not 1 <= size <= MAX_ACCESS_SIZE:
            raise CaptureError(
                f"access size must be 1..{MAX_ACCESS_SIZE}, got {size}"
            )
        # split line-straddling accesses exactly like TraceBuilder
        while size > 0:
            line_end = (addr // self.line_size + 1) * self.line_size
            piece = min(size, line_end - addr)
            self._append(kind, addr, piece, -1)
            addr += piece
            size -= piece

    def acquire(self, lock_id: int) -> None:
        if lock_id in self.held:
            raise CaptureError(
                f"re-acquire of traced lock {lock_id} (locks are not reentrant)"
            )
        self.held.append(lock_id)
        self._append(ACQUIRE, 0, 0, lock_id)

    def release(self, lock_id: int) -> None:
        if lock_id not in self.held:
            raise CaptureError(f"release of traced lock {lock_id} not held")
        self.held.remove(lock_id)
        self._append(RELEASE, 0, 0, lock_id)

    def barrier(self, barrier_id: int) -> None:
        if self.held:
            raise CaptureError(
                f"barrier wait while holding traced locks {self.held}"
            )
        self._append(BARRIER, 0, 0, barrier_id)

    def add_gap(self, cycles: int) -> None:
        self.pending_gap = min(self.pending_gap + cycles, _MAX_GAP)

    def events(self) -> np.ndarray:
        """The recorded events as a structured array."""
        events = np.empty(len(self.kinds), dtype=EVENT_DTYPE)
        events["kind"] = self.kinds
        events["addr"] = self.addrs
        events["size"] = self.sizes
        events["sync_id"] = self.sync_ids
        events["gap"] = self.gaps
        return events


class CaptureSession:
    """Records one run of an instrumented multithreaded program.

    Parameters
    ----------
    num_threads:
        Number of captured threads (thread *i* becomes core *i*).
    seed:
        Seeds the thread start permutation and the allocator padding via
        :func:`repro.common.rng.make_rng`; identical seeds give
        byte-identical captures.
    name:
        Program name used in tables and file metadata.
    line_size:
        Cache-line geometry used for straddle splitting and address
        mapping (must match the replaying :class:`SystemConfig`).
    switch_every:
        Optional preemption budget: additionally offer the baton to the
        next thread after every N shared accesses (0 = switch only at
        sync operations).  Any value is deterministic.
    """

    def __init__(
        self,
        num_threads: int,
        *,
        seed: int = 1,
        name: str = "captured",
        line_size: int = 64,
        switch_every: int = 0,
    ):
        if num_threads <= 0:
            raise CaptureError("num_threads must be positive")
        if switch_every < 0:
            raise CaptureError("switch_every must be >= 0")
        self.num_threads = num_threads
        self.seed = seed
        self.name = name
        self.line_size = line_size
        self.switch_every = switch_every
        self.amap = AddressMap(line_size, 1)

        self._alloc_rng = make_rng(seed, "capture", name, "alloc")
        self._next_addr = BASE_ADDRESS
        self._next_lock_id = 0
        self._next_barrier_id = 0
        self._recorders = [_ThreadRecorder(line_size) for _ in range(num_threads)]
        self._tids: dict[int, int] = {}  # threading ident -> tid
        self._scheduler: CooperativeScheduler | None = None
        self._accesses_since_switch = [0] * num_threads
        self._ran = False

    # -- shared-state factories (call before run()) ------------------------

    def alloc(self, nbytes: int, *, align_lines: bool = True) -> int:
        """Reserve ``nbytes`` of captured address space; returns the base.

        Allocations are line-aligned with a seeded padding of 0–3 lines
        between them, so the address layout is a deterministic function
        of the session seed and allocation order.
        """
        if nbytes <= 0:
            raise CaptureError("allocation size must be positive")
        if align_lines:
            padding = int(self._alloc_rng.integers(0, 4)) * self.line_size
            base = self._next_addr + padding
            lines = -(-nbytes // self.line_size)
            self._next_addr = base + lines * self.line_size
        else:
            base = self._next_addr
            self._next_addr = base + nbytes
        return base

    def array(
        self,
        length: int,
        *,
        element_size: int = 8,
        name: str = "",
        values=None,
    ) -> TracedArray:
        """A traced shared array of ``length`` elements."""
        return TracedArray(
            self, length, element_size=element_size, name=name, values=values
        )

    def struct(self, fields, *, name: str = "") -> TracedStruct:
        """A traced shared record with one 8-byte slot per field name."""
        return TracedStruct(self, fields, name=name)

    def lock(self) -> TracedLock:
        """A drop-in traced mutex (context-manager capable)."""
        lock_id = self._next_lock_id
        self._next_lock_id += 1
        return TracedLock(self, lock_id)

    def barrier(self, parties: int | None = None) -> TracedBarrier:
        """A traced barrier; defaults to all session threads."""
        barrier_id = self._next_barrier_id
        self._next_barrier_id += 1
        return TracedBarrier(self, barrier_id, parties or self.num_threads)

    def condition(self, lock: TracedLock | None = None) -> TracedCondition:
        """A traced condition variable (fresh lock unless one is given)."""
        return TracedCondition(self, lock if lock is not None else self.lock())

    # -- worker-side hooks (proxies and sync objects call these) -----------

    def current_tid(self) -> int:
        tid = self._tids.get(threading.get_ident())
        if tid is None:
            raise CaptureError(
                "traced state touched from a thread the session did not start"
            )
        return tid

    def compute(self, cycles: int) -> None:
        """Charge ``cycles`` of compute time to the next recorded event."""
        if cycles < 0:
            raise CaptureError("compute cycles must be >= 0")
        self._recorders[self.current_tid()].add_gap(cycles)

    def record_access(self, kind: int, addr: int, size: int) -> None:
        tid = self.current_tid()
        recorder = self._recorders[tid]
        recorder.access(kind, addr, size)
        if self.switch_every:
            self._accesses_since_switch[tid] += 1
            if self._accesses_since_switch[tid] >= self.switch_every:
                self._accesses_since_switch[tid] = 0
                self._scheduler.yield_control(tid)

    def record_read(self, addr: int, size: int) -> None:
        self.record_access(READ, addr, size)

    def record_write(self, addr: int, size: int) -> None:
        self.record_access(WRITE, addr, size)

    def recorder_for(self, tid: int) -> _ThreadRecorder:
        return self._recorders[tid]

    @property
    def scheduler(self) -> CooperativeScheduler:
        if self._scheduler is None:
            raise CaptureError("session is not running")
        return self._scheduler

    # -- capture -----------------------------------------------------------

    def run(self, worker) -> Program:
        """Run ``worker(tid)`` on every captured thread; return the Program.

        Threads start in a seeded permutation and hand control around
        deterministically (see :mod:`repro.capture.scheduler`).  The
        resulting program is validated against the same rules the
        synthetic workloads obey and carries this session's ``name``.
        """
        if self._ran:
            raise CaptureError("a CaptureSession records exactly one run")
        self._ran = True

        order = [
            int(tid)
            for tid in make_rng(self.seed, "capture", self.name, "order").permutation(
                self.num_threads
            )
        ]
        self._scheduler = CooperativeScheduler(order)

        def thread_main(tid: int) -> None:
            self._tids[threading.get_ident()] = tid
            error: BaseException | None = None
            try:
                self._scheduler.thread_begin(tid)
                worker(tid)
                recorder = self._recorders[tid]
                if recorder.held:
                    raise CaptureError(
                        f"thread {tid} finished holding traced locks "
                        f"{recorder.held}"
                    )
            except BaseException as exc:  # noqa: B036 - forwarded to main
                error = exc
            finally:
                self._scheduler.thread_end(tid, error)

        def factory(tid: int) -> threading.Thread:
            return threading.Thread(
                target=thread_main, args=(tid,), name=f"capture-{tid}", daemon=True
            )

        self._scheduler.run(factory)
        traces = [ThreadTrace(recorder.events()) for recorder in self._recorders]
        program = Program(traces=traces, name=self.name)
        validate_program(program, self.line_size)
        return program
