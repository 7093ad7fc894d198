"""The multicore trace-driven engine (scalar tier).

Each core owns a logical clock and executes its thread's events in
order; the engine always advances the *earliest* runnable core (a heap),
which makes the interleaving deterministic and keeps cores loosely
synchronized so the windowed NoC/DRAM contention models see coherent
time.

This module is the *scalar* tier of a two-tier engine: every event is
dispatched individually through the protocol model.
:mod:`repro.core.batch` subclasses :class:`Simulator` to bulk-apply runs
of uncontended L1 hits while delegating everything else back to the
per-event ``_step`` below; the differential suite
(``tests/test_engine_equiv.py``) pins the two engines byte-identical.
Events are ingested through ``ThreadTrace.columns()`` — plain-list
columns for in-memory traces, lazy chunk-backed views for streamed
``.rtb`` traces — and addressed by a per-core monotonically advancing
index.

Synchronization semantics:

* ``ACQUIRE``: the core blocks while another core holds the lock.  On
  acquisition its clock advances past the releaser's completion time
  (the release happens-before the acquire).
* ``RELEASE``: frees the lock and wakes all waiters (the earliest-clock
  waiter will win the race; the rest re-block).
* ``BARRIER``: cores block until every participant of the episode has
  arrived, then all resume at the latest arrival time.

Every sync event is a region boundary: the protocol's
``region_boundary`` hook runs at the sync op and its latency (CE
metadata clearing, ARC self-downgrade/self-invalidation) is charged to
the synchronizing core.

The engine performs deadlock detection (impossible for programs passing
:func:`repro.trace.validate.validate_program`, but cheap insurance).
"""

from __future__ import annotations

import heapq

from ..common.bitops import byte_mask
from ..common.config import SystemConfig
from ..common.errors import SimulationError, TraceError
from ..protocols import make_protocol
from ..trace.events import ACQUIRE, BARRIER, RELEASE, WRITE
from ..trace.program import Program
from .machine import Machine
from .results import RunResult

#: fixed cost of the atomic operation implementing an acquire/release
SYNC_OP_CYCLES = 15


class _Lock:
    __slots__ = ("holder", "free_at", "waiters")

    def __init__(self) -> None:
        self.holder = -1
        self.free_at = 0
        self.waiters: list[int] = []


class _BarrierEpisode:
    __slots__ = ("arrived", "latest")

    def __init__(self) -> None:
        self.arrived: set[int] = set()
        self.latest = 0


class Simulator:
    """Runs one :class:`Program` on one :class:`SystemConfig`.

    Pass a :class:`~repro.verify.recorder.ScheduleRecorder` as
    ``recorder`` to log the run's accesses and region intervals for the
    ground-truth conflict oracles (small runs only — recording every
    access is memory-proportional to the trace).
    """

    def __init__(
        self,
        cfg: SystemConfig,
        program: Program,
        recorder=None,
        *,
        sanitize: bool | None = None,
    ):
        if program.num_threads > cfg.num_cores:
            raise TraceError(
                f"program has {program.num_threads} threads but the machine "
                f"has {cfg.num_cores} cores"
            )
        self.cfg = cfg
        self._nonmem_cycles = cfg.nonmem_cycles_per_event
        self.program = program
        # sanitize=None defers to $REPRO_SANITIZE (the cross-process switch)
        self.machine = Machine(cfg, sanitize=sanitize)
        self.protocol = make_protocol(self.machine)
        self.protocol.active_cores = program.num_threads
        self.recorder = recorder

        n = program.num_threads
        # Column sequences: materialized traces return plain lists
        # (plain-int indexing is several times faster than NumPy scalar
        # indexing in the hot loop); streamed traces return lazy
        # chunk-backed views.  Either way the engine indexes each core's
        # columns at a monotonically advancing position.
        columns = [t.columns() for t in program.traces]
        self._kinds = [c[0] for c in columns]
        self._addrs = [c[1] for c in columns]
        self._sizes = [c[2] for c in columns]
        self._sync_ids = [c[3] for c in columns]
        self._gaps = [c[4] for c in columns]
        self._lengths = [len(t) for t in program.traces]

        self.clocks = [0] * n
        self.indices = [0] * n
        self._locks: dict[int, _Lock] = {}
        self._barriers: dict[int, _BarrierEpisode] = {}
        self._blocked = [False] * n
        self._finished = [False] * n
        self._num_finished = 0
        self._heap: list[tuple[int, int]] = [(0, core) for core in range(n)]
        heapq.heapify(self._heap)

    # -- public API --------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the program to completion and return the results."""
        heap = self._heap
        finished = self._finished
        blocked = self._blocked
        pop = heapq.heappop
        n = self.program.num_threads
        while self._num_finished < n:
            if not heap:
                self._raise_deadlock()
            clock, core = pop(heap)
            if finished[core] or blocked[core]:
                continue  # stale heap entry
            self._step(core, clock)
        cycles = max(self.clocks) if self.clocks else 0
        self.machine.stats.cycles = cycles
        self.protocol.finalize(cycles)
        return RunResult(
            cfg=self.cfg,
            program_name=self.program.name,
            stats=self.machine.stats,
            net=self.machine.net,
            dram=self.machine.dram,
        )

    # -- the event loop ------------------------------------------------------------

    def _step(self, core: int, clock: int) -> None:
        idx = self.indices[core]
        if idx >= self._lengths[core]:
            self._finish(core, clock)
            return

        kind = self._kinds[core][idx]
        clock += self._gaps[core][idx] + self._nonmem_cycles

        if kind <= WRITE:
            addr = self._addrs[core][idx]
            size = self._sizes[core][idx]
            if self.recorder is not None:
                amap = self.machine.amap
                self.recorder.record_access(
                    core,
                    clock,
                    self.protocol.region[core],
                    amap.line(addr),
                    byte_mask(amap.offset(addr), size, self.cfg.line_size),
                    kind == WRITE,
                )
            clock += self.protocol.access(core, addr, size, kind == WRITE, clock)
            # _resume, inlined on the access path
            idx += 1
            self.indices[core] = idx
            self.clocks[core] = clock
            if idx >= self._lengths[core]:
                self._finish(core, clock)
            else:
                heapq.heappush(self._heap, (clock, core))
        elif kind == ACQUIRE:
            self._acquire(core, clock, self._sync_ids[core][idx])
        elif kind == RELEASE:
            self._release(core, clock, self._sync_ids[core][idx])
        elif kind == BARRIER:
            self._barrier(core, clock, self._sync_ids[core][idx])
        else:  # pragma: no cover - validated traces cannot reach this
            raise SimulationError(f"unknown event kind {kind}")

    def _resume(self, core: int, clock: int) -> None:
        self.clocks[core] = clock
        if self.indices[core] >= self._lengths[core]:
            self._finish(core, clock)
        else:
            heapq.heappush(self._heap, (clock, core))

    def _finish(self, core: int, clock: int) -> None:
        if not self._finished[core]:
            self.clocks[core] = clock
            self._finished[core] = True
            self._num_finished += 1

    # -- synchronization ---------------------------------------------------------------

    def _boundary(self, core: int, clock: int, kind: int) -> int:
        """Run the protocol's region boundary, recording interval times."""
        if self.recorder is not None:
            old_region = self.protocol.region[core]
            self.recorder.record_region_end(core, old_region, clock)
            latency = self.protocol.region_boundary(core, clock, kind)
            self.recorder.record_region_start(
                core, self.protocol.region[core], clock + latency
            )
            return latency
        return self.protocol.region_boundary(core, clock, kind)

    def _lock(self, lock_id: int) -> _Lock:
        lock = self._locks.get(lock_id)
        if lock is None:
            lock = _Lock()
            self._locks[lock_id] = lock
        return lock

    def _acquire(self, core: int, clock: int, lock_id: int) -> None:
        lock = self._lock(lock_id)
        if lock.holder != -1:
            self._blocked[core] = True
            self.clocks[core] = clock
            lock.waiters.append(core)
            return
        clock = max(clock, lock.free_at)
        clock += SYNC_OP_CYCLES
        clock += self._boundary(core, clock, ACQUIRE)
        lock.holder = core
        self.indices[core] += 1
        self._resume(core, clock)

    def _release(self, core: int, clock: int, lock_id: int) -> None:
        lock = self._lock(lock_id)
        if lock.holder != core:  # pragma: no cover - validated traces
            raise SimulationError(
                f"core {core} releases lock {lock_id} held by {lock.holder}"
            )
        clock += SYNC_OP_CYCLES
        clock += self._boundary(core, clock, RELEASE)
        lock.holder = -1
        lock.free_at = clock
        if lock.waiters:
            for waiter in lock.waiters:
                self._blocked[waiter] = False
                wake = max(self.clocks[waiter], clock)
                self.clocks[waiter] = wake
                heapq.heappush(self._heap, (wake, waiter))
            lock.waiters.clear()
        self.indices[core] += 1
        self._resume(core, clock)

    def _barrier(self, core: int, clock: int, barrier_id: int) -> None:
        participants = self.program.barrier_participants.get(barrier_id)
        if not participants:  # pragma: no cover - validated traces
            raise SimulationError(f"barrier {barrier_id} has no participants")
        episode = self._barriers.get(barrier_id)
        if episode is None:
            episode = _BarrierEpisode()
            self._barriers[barrier_id] = episode

        clock += self._boundary(core, clock, BARRIER)
        episode.arrived.add(core)
        episode.latest = max(episode.latest, clock)
        self.indices[core] += 1

        if episode.arrived == participants:
            depart = episode.latest + SYNC_OP_CYCLES
            del self._barriers[barrier_id]
            # Wake in sorted core order: set iteration order must never
            # leak into the schedule (ties in the heap break by core id,
            # and runs must be reproducible across processes).
            for member in sorted(participants):
                # The post-barrier region starts at departure, not at the
                # member's (possibly much earlier) arrival.
                self.protocol.rebase_region_start(member, depart)
                if self.recorder is not None:
                    self.recorder.record_region_start(
                        member, self.protocol.region[member], depart
                    )
                if member == core:
                    continue
                self._blocked[member] = False
                self.clocks[member] = depart
                heapq.heappush(self._heap, (depart, member))
            self._resume(core, depart)
        else:
            self._blocked[core] = True
            self.clocks[core] = clock

    # -- diagnostics ------------------------------------------------------------------------

    def _raise_deadlock(self) -> None:
        # Sorted iteration throughout: the diagnostic must render
        # identically across processes and hash seeds so parallel and
        # serial harness runs report byte-identical errors.
        at_barrier = set()
        for barrier_id in sorted(self._barriers):
            at_barrier.update(self._barriers[barrier_id].arrived)
        waiting = [
            (core, "barrier" if core in at_barrier else "lock")
            for core in range(self.program.num_threads)
            if self._blocked[core]
        ]
        raise SimulationError(
            f"deadlock: no runnable cores; blocked: {waiting}; "
            f"finished: {self._num_finished}/{self.program.num_threads}"
        )


def run_program(
    cfg: SystemConfig, program: Program, *, engine: str | None = None
) -> RunResult:
    """Convenience one-shot: simulate ``program`` on ``cfg``.

    ``engine`` selects the tier (``"scalar"`` or ``"batch"``); ``None``
    defers to ``$REPRO_ENGINE`` and then the batch default.  Both
    engines are byte-identical, so the choice only affects wall-clock.
    """
    from .batch import make_simulator  # deferred: batch imports this module

    return make_simulator(cfg, program, engine=engine).run()
