"""Parallel experiment execution with deterministic reassembly.

The harness decomposes an experiment into independent *simulation
points* — one :class:`SimPoint` per (config, workload) pair — and the
:class:`Executor` fans them out across ``jobs`` worker processes,
reassembling results **in submission order** so every table and chart is
byte-identical to a serial run.  ``jobs=1`` is the serial path: points
run in-process with no pool and no transport.

A :class:`~repro.harness.result_cache.ResultCache` can sit under the
executor: each point's key is a stable hash of its full config, its
workload fingerprint and a package-version salt, hits skip simulation
entirely, and the executor's :class:`Manifest` records every key with
its timing and hit/miss status for auditability.

Workloads are passed either as a :class:`WorkloadSpec` — a cheap,
picklable recipe rebuilt inside the worker (preferred: on a cache hit
the trace is never even generated) — or as a prebuilt
:class:`~repro.trace.program.Program`, which is fingerprinted by its
trace contents (the ``sweep()`` path, whose axes are arbitrary
callables).

Failure semantics (see docs/RESILIENCE.md): a point either completes or
surfaces as a *typed* failure.  ``point_timeout`` bounds each point's
wall clock (a hung worker is killed and the pool respawned without
blocking reassembly); transient failures — worker crashes, pool
breakage, pickle/transport errors — are retried up to ``retries`` times
with exponential backoff, resubmitting only the lost points; with
``keep_going`` a terminally failed point becomes a
:class:`~repro.common.errors.PointFailure` at its index instead of
aborting the sweep, and the :class:`Manifest` records per-point status
(``hit``/``miss``/``computed``/``retried``/``timeout``/``failed``).  A
:class:`~repro.harness.checkpoint.Checkpoint` journal makes interrupted
sweeps resumable.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..common import durable
from ..common.config import ALL_PROTOCOLS, ProtocolKind, SystemConfig
from ..common.errors import (
    ConfigError,
    PointFailedError,
    PointFailure,
    PointTimeoutError,
    WorkerCrashError,
    is_transient,
)
from ..core.results import Comparison, RunResult
from ..trace.stats import ProgramStats
from .checkpoint import Checkpoint
from .result_cache import ResultCache, point_key, stats_key

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from ..trace.program import Program
    from .faultinject import FaultPlan

#: results a cache-less executor keeps in memory (a ``--no-cache``
#: ``--preset bench`` run simulates 166 distinct points)
_MEMO_LIMIT = 256


def resolve_jobs(value: int | str) -> int:
    """Resolve a ``--jobs`` value: a positive int, or ``"auto"``.

    ``auto`` clamps to the machine's CPU count — fan-out beyond the
    physical cores only adds scheduler pressure to deterministic,
    CPU-bound simulation points.
    """
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"jobs must be an integer or 'auto', got {value!r}")
    return value


@dataclass(frozen=True)
class WorkloadSpec:
    """A deterministic workload recipe (name + generator parameters).

    Specs are tiny, picklable and hashable; workers rebuild the program
    from the registry, which is deterministic in these fields (see
    ``repro.synth.suite``).
    """

    name: str
    num_threads: int
    seed: int
    scale: float
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls, name: str, *, num_threads: int, seed: int, scale: float, **params
    ) -> "WorkloadSpec":
        return cls(name, num_threads, seed, scale, tuple(sorted(params.items())))

    def build(self) -> Program:
        from ..synth.base import generate

        return generate(
            self.name,
            num_threads=self.num_threads,
            seed=self.seed,
            scale=self.scale,
            **dict(self.params),
        )

    def fingerprint(self):
        return {
            "kind": "spec",
            "name": self.name,
            "num_threads": self.num_threads,
            "seed": self.seed,
            "scale": self.scale,
            # params may hold tuples/bools; repr is stable for these
            "params": [[k, repr(v)] for k, v in self.params],
        }


def program_digest(program: Program) -> str:
    """Content digest of a prebuilt program's traces.

    Hashes every trace column's dtype and raw bytes plus the barrier
    participant sets, so two programs digest equal iff the simulator
    would see identical event streams.
    """
    h = hashlib.sha256()
    h.update(program.name.encode("utf-8"))
    h.update(str(program.num_threads).encode("ascii"))
    for trace in program.traces:
        for column in (
            trace.kinds, trace.addrs, trace.sizes, trace.sync_ids, trace.gaps
        ):
            h.update(str(column.dtype).encode("ascii"))
            h.update(column.tobytes())
    for bid in sorted(program.barrier_participants):
        members = sorted(program.barrier_participants[bid])
        h.update(f"b{bid}:{members}".encode("ascii"))
    return h.hexdigest()


@dataclass(frozen=True)
class SimPoint:
    """One independent simulation: a config plus a workload."""

    cfg: SystemConfig
    workload: WorkloadSpec | Program

    @property
    def workload_name(self) -> str:
        return self.workload.name

    def build_program(self) -> Program:
        if isinstance(self.workload, WorkloadSpec):
            return self.workload.build()
        return self.workload

    def key(self) -> str:
        if isinstance(self.workload, WorkloadSpec):
            fingerprint = self.workload.fingerprint()
        else:
            fingerprint = {
                "kind": "trace",
                "name": self.workload.name,
                "digest": program_digest(self.workload),
            }
        return point_key(self.cfg, fingerprint)


def _simulate_point(point: SimPoint) -> tuple[RunResult, float]:
    """Worker entry: build, validate and simulate one point.

    Module-level so it pickles into worker processes.  Returns the
    result plus the wall seconds it took (for the manifest).
    """
    # imported per call, not with this module: a run whose points all
    # hit the cache never loads NumPy or the simulator
    from ..core.batch import make_simulator
    from ..trace.validate import validate_program

    start = time.perf_counter()
    program = point.build_program()
    validate_program(program, point.cfg.line_size)
    # Engine choice rides on $REPRO_ENGINE (workers are forked, so they
    # inherit it); results are engine-independent, so cache keys are too.
    result = make_simulator(point.cfg, program).run()
    return result, time.perf_counter() - start


def load_simulation_stack() -> None:
    """Import everything simulating a point needs: NumPy, the engine,
    the protocols, trace validation and every workload generator."""
    from ..core import batch  # noqa: F401
    from ..synth.base import registered_workloads
    from ..trace import validate  # noqa: F401

    registered_workloads()  # imports the generator modules


def _point_entry(
    point: SimPoint,
    key: str,
    attempt: int,
    plan: FaultPlan | None,
    in_pool: bool,
) -> tuple[RunResult, float]:
    """Worker entry with fault-injection hooks applied first."""
    if plan is not None:
        from .faultinject import apply_worker_fault

        apply_worker_fault(plan, key, attempt, in_pool)
    return _simulate_point(point)


# --------------------------------------------------------------------------
# run manifest
# --------------------------------------------------------------------------


@dataclass
class ManifestEntry:
    """Audit record of one simulation point."""

    key: str
    workload: str
    protocol: str
    status: str  # hit | miss | computed | retried | timeout | failed
    seconds: float
    attempts: int = 1
    error: str | None = None

    def to_dict(self) -> dict:
        record = {
            "key": self.key,
            "workload": self.workload,
            "protocol": self.protocol,
            "status": self.status,
            "seconds": round(self.seconds, 6),
            "attempts": self.attempts,
        }
        if self.error is not None:
            record["error"] = self.error
        return record


#: point status -> the manifest counts it adds to
_COUNTED_AS = {
    "hit": ("hits",),
    "miss": ("misses",),
    "computed": ("misses",),
    "retried": ("misses", "retried"),
    "timeout": ("timeouts", "failed"),
    "failed": ("failed",),
}


@dataclass
class Manifest:
    """Every point an executor ran: keys, timings, per-point status."""

    jobs: int = 1
    cache_dir: str | None = None
    entries: list[ManifestEntry] = field(default_factory=list)
    corrupt_evictions: int = 0

    def _counts(self) -> dict:
        """Per-status counts and total seconds over this run's entries."""
        return self._status_counts((e.status, e.seconds) for e in self.entries)

    @property
    def hits(self) -> int:
        return self._counts()["hits"]

    @property
    def misses(self) -> int:
        return self._counts()["misses"]

    @property
    def retried(self) -> int:
        return self._counts()["retried"]

    @property
    def timeouts(self) -> int:
        return self._counts()["timeouts"]

    @property
    def failed(self) -> int:
        return self._counts()["failed"]

    def record(
        self,
        key: str,
        workload: str,
        protocol: str,
        status: str,
        seconds: float,
        attempts: int = 1,
        error: str | None = None,
    ) -> None:
        self.entries.append(
            ManifestEntry(key, workload, protocol, status, seconds, attempts, error)
        )

    def to_dict(self) -> dict:
        counts = self._counts()
        seconds = counts.pop("seconds")
        return {
            "version": 2,
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            **counts,
            "corrupt_evictions": self.corrupt_evictions,
            "seconds": seconds,
            "entries": [e.to_dict() for e in self.entries],
        }

    @staticmethod
    def _status_counts(entries: Iterable[tuple[str | None, float]]) -> dict:
        """The one status -> count mapping, over ``(status, seconds)``."""
        counts = {
            "points": 0, "hits": 0, "misses": 0, "retried": 0,
            "timeouts": 0, "failed": 0,
        }
        seconds = 0.0
        for status, spent in entries:
            counts["points"] += 1
            seconds += spent
            # merged statuses are read back from disk: any JSON value
            if isinstance(status, str):
                for name in _COUNTED_AS.get(status, ()):
                    counts[name] += 1
        counts["seconds"] = round(seconds, 6)
        return counts

    def write_merged(self, path: str | Path) -> Path:
        """Publish this run's manifest, merging in a prior one at ``path``.

        Concurrent executors sharing one cache directory each write the
        manifest at sweep end; without merging, the last writer would
        silently erase every other run's audit trail.  Under the
        directory lock, entries from the existing manifest whose keys
        this run did not settle are preserved (this run's record wins on
        overlap), counts are recomputed over the merged entry list, and
        a ``runs`` counter tracks how many sweeps contributed.
        """
        import json

        path = Path(path)
        with durable.FileLock(path.parent / ".lock"):
            try:
                previous = json.loads(path.read_text())
                if not isinstance(previous, dict):
                    previous = None
            except (OSError, ValueError):
                previous = None
            data = self.to_dict()
            data["runs"] = 1
            if previous is not None:
                ours = {e["key"] for e in data["entries"]}
                kept = [
                    e for e in previous.get("entries", [])
                    if isinstance(e, dict) and e.get("key") not in ours
                ]
                data["entries"] = kept + data["entries"]
                data.update(self._status_counts(
                    (e.get("status"), e.get("seconds", 0.0))
                    for e in data["entries"]
                ))
                data["corrupt_evictions"] += previous.get("corrupt_evictions", 0)
                data["runs"] = previous.get("runs", 1) + 1
            return durable.atomic_replace_text(
                path, json.dumps(data, indent=2) + "\n", site="manifest"
            )


# --------------------------------------------------------------------------
# the executor
# --------------------------------------------------------------------------


@dataclass
class _Slot:
    """Mutable in-flight state of one pending simulation point."""

    index: int
    point: SimPoint
    key: str
    attempts: int = 0
    deadline: float | None = None
    started: float = 0.0  # monotonic submit time of the current attempt
    spent: float = 0.0  # wall seconds burned across failed attempts
    due: float = 0.0  # earliest monotonic time a retry may resubmit


class Executor:
    """Runs simulation points across processes, results in input order.

    ``jobs=1`` (the default) executes in-process — the exact serial
    code path the harness always had.  With ``jobs>1`` a
    ``ProcessPoolExecutor`` is created lazily on first use and reused
    across batches; call :meth:`close` (or use as a context manager)
    to shut it down.

    Resilience knobs (all optional, all off by default):

    ``point_timeout``
        Wall-clock budget in seconds per point.  Enforcement needs
        process isolation, so a pool is used even at ``jobs=1``.
    ``retries`` / ``backoff``
        Transient failures (worker crash, pool breakage, pickle errors)
        are resubmitted up to ``retries`` times, sleeping a
        deterministically-jittered slice of ``backoff * 2**(attempt-1)``
        seconds in between (see :meth:`_backoff_for`).
    ``keep_going``
        Terminally failed points yield :class:`PointFailure` records at
        their index instead of raising; the sweep completes partially.
    ``fault_plan``
        A :class:`~repro.harness.faultinject.FaultPlan` injecting
        deterministic chaos (tests and chaos drills only).
    ``checkpoint``
        A :class:`~repro.harness.checkpoint.Checkpoint` journal updated
        as points settle, enabling ``--resume``.
    """

    def __init__(
        self,
        jobs: int | str = 1,
        cache: ResultCache | None = None,
        *,
        point_timeout: float | None = None,
        retries: int = 0,
        backoff: float = 0.05,
        keep_going: bool = False,
        fault_plan: FaultPlan | None = None,
        checkpoint: Checkpoint | None = None,
    ):
        jobs = resolve_jobs(jobs)
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if point_timeout is not None and point_timeout <= 0:
            raise ConfigError(f"point_timeout must be > 0, got {point_timeout}")
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        cpus = os.cpu_count() or 1
        if jobs > cpus:
            print(
                f"[executor: warning: jobs={jobs} exceeds {cpus} CPUs; "
                "simulation points are CPU-bound, oversubscription only "
                "adds contention]",
                file=sys.stderr,
            )
        self.jobs = jobs
        self.cache = cache
        self.point_timeout = point_timeout
        self.retries = retries
        self.backoff = backoff
        self.keep_going = keep_going
        self.fault_plan = fault_plan
        self.checkpoint = checkpoint
        self.manifest = Manifest(
            jobs=jobs, cache_dir=str(cache.root) if cache is not None else None
        )
        self.point_failures: list[PointFailure] = []
        self._corrupted: set[str] = set()
        # without a cache, the results this executor simulated: ablation
        # and sensitivity experiments re-run points of the main figures,
        # and nothing else would keep a run from simulating them twice
        self._computed: dict[str, RunResult] = {}
        self._pool: ProcessPoolExecutor | None = None
        # snapshot the shared cache's eviction counter: this executor's
        # manifest must report only the evictions *it* witnessed, or
        # every short-lived executor over a long-lived cache re-reports
        # (and write_merged re-sums) its predecessors' evictions
        self._evictions_at_start = (
            cache.stats.discarded if cache is not None else 0
        )

    # -- lifecycle -------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # the pool machinery loads only when a run first needs a pool
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # forked workers inherit the parent's modules: import the
            # simulation stack once here rather than once per worker
            load_simulation_stack()
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                context = multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=context
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down, dropping queued work.

        ``cancel_futures=True`` means Ctrl-C or an early exit never
        hangs draining a backlog of queued points; only points already
        running finish.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def terminate(self) -> None:
        """Hard-kill the pool: for hung workers ``close()`` would await.

        Workers get SIGKILL — safe because points are pure functions
        whose only side effect, a cache store, is atomic.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            process.kill()
        pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        # close even while an exception propagates; on interrupt, don't
        # block on a possibly-hung worker
        if exc_type is not None and issubclass(exc_type, KeyboardInterrupt):
            self.terminate()
        else:
            self.close()

    # -- execution -------------------------------------------------------

    def run_points(
        self, points: Sequence[SimPoint]
    ) -> list[RunResult | PointFailure]:
        """Run every point; the i-th result belongs to the i-th point.

        Cache hits are served without simulating; misses fan out across
        the pool (or run serially for ``jobs=1``).  Without a cache, a
        key an earlier batch simulated is served from memory as a hit
        (the newest ``_MEMO_LIMIT`` results are kept).  Reassembly is by
        input index, so the output order never depends on worker timing.
        Under ``keep_going`` a terminally failed point's slot holds a
        :class:`PointFailure` instead of a result; otherwise the first
        terminal failure raises its typed error — after the manifest has
        been flushed for every point that did settle, so an aborted
        sweep is still fully accounted for.
        """
        points = list(points)
        results: list[RunResult | PointFailure | None] = [None] * len(points)
        records: list[tuple | None] = [None] * len(points)
        slots: list[_Slot] = []

        try:
            for i, pt in enumerate(points):
                key = pt.key()
                if self._replay_checkpoint_failure(i, pt, key, results, records):
                    continue
                start = time.perf_counter()
                if self.cache is not None:
                    hit = self.cache.get(key)
                else:
                    hit = self._computed.get(key)
                if hit is not None:
                    seconds = time.perf_counter() - start
                    results[i] = hit
                    records[i] = (
                        key, pt.workload_name, pt.cfg.protocol.value,
                        "hit", seconds, 1, None,
                    )
                    self._journal(records[i])
                    continue
                slots.append(_Slot(index=i, point=pt, key=key))

            if slots:
                if self._use_pool(slots):
                    self._run_pooled(slots, results, records)
                else:
                    self._run_serial(slots, results, records)
        finally:
            # flush in submission order; on interrupt/abort only settled
            # points have records, and the manifest stays consistent
            for record in records:
                if record is not None:
                    self.manifest.record(*record)
            if self.cache is not None:
                self.manifest.corrupt_evictions = (
                    self.cache.stats.discarded - self._evictions_at_start
                )
            if self.checkpoint is not None:
                self.checkpoint.sync()  # close the group-commit window

        return results  # type: ignore[return-value]

    def _use_pool(self, slots: list[_Slot]) -> bool:
        if self.point_timeout is not None:
            return True  # enforcement needs process isolation
        if self.fault_plan is not None and self.fault_plan.needs_pool:
            return True  # injected crashes kill their host process
        return self.jobs > 1 and len(slots) > 1

    # -- settle helpers --------------------------------------------------

    def _replay_checkpoint_failure(
        self, index: int, pt: SimPoint, key: str, results: list, records: list
    ) -> bool:
        """Serve a known-terminally-failed point from the resume journal.

        Only under ``keep_going``: a resumed fault-free run must still
        re-attempt failed points when the caller asked for completeness.
        """
        if self.checkpoint is None or not self.keep_going:
            return False
        past = self.checkpoint.failed(key)
        if past is None:
            return False
        kind = "timeout" if past["status"] == "timeout" else "error"
        failure = PointFailure(
            key=key,
            workload=pt.workload_name,
            protocol=pt.cfg.protocol.value,
            kind=kind,
            attempts=past.get("attempts", 1),
            message="resumed: " + past.get("error", past["status"]),
            seconds=0.0,
        )
        results[index] = failure
        records[index] = (
            key, pt.workload_name, pt.cfg.protocol.value, past["status"],
            0.0, failure.attempts, failure.message,
        )
        self.point_failures.append(failure)
        return True

    def _settle_success(
        self, slot: _Slot, result: RunResult, seconds: float,
        results: list, records: list,
    ) -> None:
        results[slot.index] = result
        if self.cache is not None:
            self.cache.put(slot.key, result)
            self._maybe_corrupt(slot.key)
            status = "retried" if slot.attempts > 1 else "miss"
        else:
            if len(self._computed) >= _MEMO_LIMIT:
                del self._computed[next(iter(self._computed))]  # oldest
            self._computed[slot.key] = result
            status = "retried" if slot.attempts > 1 else "computed"
        pt = slot.point
        records[slot.index] = (
            slot.key, pt.workload_name, pt.cfg.protocol.value, status,
            seconds, slot.attempts, None,
        )
        self._journal(records[slot.index])

    def _settle_failure(
        self, slot: _Slot, kind: str, message: str, results: list, records: list
    ) -> None:
        """Terminal failure: record, then raise unless ``keep_going``."""
        pt = slot.point
        status = "timeout" if kind == "timeout" else "failed"
        failure = PointFailure(
            key=slot.key,
            workload=pt.workload_name,
            protocol=pt.cfg.protocol.value,
            kind=kind,
            attempts=slot.attempts,
            message=message,
            seconds=slot.spent,
        )
        results[slot.index] = failure
        records[slot.index] = (
            slot.key, pt.workload_name, pt.cfg.protocol.value, status,
            slot.spent, slot.attempts, message,
        )
        self._journal(records[slot.index])
        self.point_failures.append(failure)
        if not self.keep_going:
            if self._pool is not None:
                # aborting the batch: never block shutdown on a worker
                # that may be hung (the timeout case) — kill, not drain
                self.terminate()
            detail = (
                f"point {pt.workload_name}/{pt.cfg.protocol.value} "
                f"({slot.key[:12]}…) {kind} after {slot.attempts} "
                f"attempt(s): {message}"
            )
            if kind == "timeout":
                raise PointTimeoutError(detail)
            if kind == "crash":
                raise WorkerCrashError(detail)
            raise PointFailedError(detail)

    def _journal(self, record: tuple) -> None:
        if self.checkpoint is not None:
            key, workload, protocol, status, seconds, attempts, error = record
            self.checkpoint.record(
                key, status, workload, protocol, seconds, attempts, error
            )

    def _maybe_corrupt(self, key: str) -> None:
        """Fault injection: flip a byte of the entry just stored."""
        if (
            self.fault_plan is not None
            and key not in self._corrupted
            and self.fault_plan.corrupts(key)
        ):
            self.cache.corrupt_entry(key)
            self._corrupted.add(key)

    def _classify(self, exc: BaseException) -> tuple[str, bool]:
        """Map an exception to (failure kind, retryable?)."""
        if isinstance(exc, WorkerCrashError):
            return "crash", True
        if is_transient(exc):
            return "error", True
        return "error", False

    def _backoff_for(self, key: str, attempt: int) -> float:
        """Deterministic full-jitter backoff for this (point, attempt).

        Plain exponential backoff is lockstep: workers that crash
        together retry together, re-colliding on whatever resource broke
        them.  Full jitter draws the sleep uniformly from [0, cap) with
        ``cap = backoff * 2**(attempt-1)`` — but seeded per (key,
        attempt) via :func:`~repro.harness.faultinject.hash_draw`, the
        same discipline as ``FaultPlan._draw``, so retry storms
        desynchronize *and* identical runs sleep identically (sweep
        output stays byte-reproducible under chaos).
        """
        from .faultinject import hash_draw

        cap = self.backoff * (2 ** max(attempt - 1, 0))
        return cap * hash_draw(0, "backoff", key, attempt)

    # -- serial path -----------------------------------------------------

    def _run_serial(self, slots: list[_Slot], results: list, records: list) -> None:
        for slot in slots:
            while True:
                slot.attempts += 1
                start = time.perf_counter()
                try:
                    result, seconds = _point_entry(
                        slot.point, slot.key, slot.attempts,
                        self.fault_plan, in_pool=False,
                    )
                except KeyboardInterrupt:
                    raise
                except Exception as exc:
                    slot.spent += time.perf_counter() - start
                    kind, retryable = self._classify(exc)
                    if retryable and slot.attempts <= self.retries:
                        time.sleep(self._backoff_for(slot.key, slot.attempts))
                        continue
                    self._settle_failure(
                        slot, kind, f"{type(exc).__name__}: {exc}",
                        results, records,
                    )
                else:
                    self._settle_success(slot, result, seconds, results, records)
                break

    # -- pooled path -----------------------------------------------------

    def _run_pooled(self, slots: list[_Slot], results: list, records: list) -> None:
        """Fan slots out with per-point deadlines and crash recovery.

        Submission is windowed to the pool width, so a submitted point
        starts (nearly) immediately and its deadline measures *its own*
        run time, not time spent queued behind other points.  A hung
        point is detected at its deadline; since a running task cannot
        be cancelled, the whole pool is killed and respawned, and every
        other in-flight point is resubmitted without penalty.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        waiting: deque[_Slot] = deque(slots)
        delayed: list[_Slot] = []  # settled-for-retry, waiting out backoff
        active: dict[Any, _Slot] = {}

        def submit(slot: _Slot) -> None:
            slot.attempts += 1
            slot.started = time.monotonic()
            if self.point_timeout is not None:
                slot.deadline = slot.started + self.point_timeout
            args = (
                _point_entry, slot.point, slot.key, slot.attempts,
                self.fault_plan, True,
            )
            try:
                future = self._ensure_pool().submit(*args)
            except BrokenProcessPool:
                # the pool broke between batches/loops: respawn once
                self.terminate()
                future = self._ensure_pool().submit(*args)
            active[future] = slot

        def requeue_crash(slot: _Slot, message: str) -> None:
            if slot.attempts <= self.retries:
                slot.due = time.monotonic() + self._backoff_for(
                    slot.key, slot.attempts
                )
                delayed.append(slot)
            else:
                self._settle_failure(slot, "crash", message, results, records)

        while waiting or delayed or active:
            now = time.monotonic()
            for slot in [s for s in delayed if s.due <= now]:
                delayed.remove(slot)
                waiting.append(slot)
            while waiting and len(active) < self.jobs:
                submit(waiting.popleft())
            if not active:
                # everything in flight is waiting out a backoff window
                time.sleep(max(0.0, min(s.due for s in delayed) - now))
                continue

            timeout = None
            if self.point_timeout is not None:
                timeout = max(
                    0.0, min(s.deadline for s in active.values()) - now
                )
            if delayed:
                due = max(0.0, min(s.due for s in delayed) - now)
                timeout = due if timeout is None else min(timeout, due)
            done, _ = wait(set(active), timeout=timeout,
                           return_when=FIRST_COMPLETED)

            broken = False
            for future in done:
                slot = active.pop(future)
                try:
                    result, seconds = future.result()
                except BrokenProcessPool:
                    broken = True
                    slot.spent += time.monotonic() - slot.started
                    requeue_crash(slot, "worker process died (pool broke)")
                except KeyboardInterrupt:  # pragma: no cover - re-raised
                    raise
                except Exception as exc:
                    slot.spent += time.monotonic() - slot.started
                    kind, retryable = self._classify(exc)
                    if retryable and slot.attempts <= self.retries:
                        slot.due = time.monotonic() + self._backoff_for(
                            slot.key, slot.attempts
                        )
                        delayed.append(slot)
                    else:
                        self._settle_failure(
                            slot, kind, f"{type(exc).__name__}: {exc}",
                            results, records,
                        )
                else:
                    self._settle_success(slot, result, seconds, results, records)

            if broken:
                # every other in-flight future is doomed too: respawn the
                # pool, put the survivors back without charging an attempt
                self.terminate()
                for future, slot in active.items():
                    slot.attempts -= 1
                    waiting.append(slot)
                active.clear()
                continue

            if self.point_timeout is not None:
                self._reap_expired(active, waiting, delayed, results, records)

    def _reap_expired(
        self, active: dict, waiting: deque, delayed: list,
        results: list, records: list,
    ) -> None:
        """Time out overdue points; kill the pool if any were running."""
        now = time.monotonic()
        expired = [
            (future, slot) for future, slot in active.items()
            if not future.done() and slot.deadline is not None
            and now >= slot.deadline
        ]
        if not expired:
            return
        hung = False
        for future, slot in expired:
            del active[future]
            if future.cancel():
                # never started (pool was saturated): not the point's
                # fault, resubmit without charging the attempt
                slot.attempts -= 1
                waiting.append(slot)
                continue
            hung = True
            slot.spent += self.point_timeout or 0.0
            if slot.attempts <= self.retries:
                slot.due = now + self._backoff_for(slot.key, slot.attempts)
                delayed.append(slot)
            else:
                self._settle_failure(
                    slot, "timeout",
                    f"exceeded {self.point_timeout:g}s wall-clock budget",
                    results, records,
                )
        if hung:
            # a hung task cannot be cancelled — reclaim its worker by
            # killing the pool; in-flight survivors resubmit uncharged.
            # First harvest any that finished between wait() and now.
            for future, slot in list(active.items()):
                if future.done():
                    del active[future]
                    try:
                        result, seconds = future.result()
                    except Exception:
                        slot.attempts -= 1
                        waiting.append(slot)
                    else:
                        self._settle_success(
                            slot, result, seconds, results, records
                        )
            self.terminate()
            for slot in active.values():
                slot.attempts -= 1
                waiting.append(slot)
            active.clear()

    # -- single-point / stats conveniences -------------------------------

    def run(
        self, cfg: SystemConfig, workload: WorkloadSpec | Program
    ) -> RunResult | PointFailure:
        """Run one point (cache-aware single simulation)."""
        return self.run_points([SimPoint(cfg, workload)])[0]

    def workload_stats(
        self, spec: WorkloadSpec, line_size: int = 64
    ) -> ProgramStats:
        """A workload's Table II characterization, served from the cache.

        Stats depend only on the spec and line size; a hit skips even
        generating the trace.  Recorded in the manifest like any other
        point (protocol ``-``).
        """
        key = stats_key(spec.fingerprint(), line_size)
        if self.cache is not None:
            start = time.perf_counter()
            hit = self.cache.get(key, expect=ProgramStats)
            if hit is not None:
                self.manifest.record(
                    key, spec.name, "-", "hit", time.perf_counter() - start
                )
                return hit
        start = time.perf_counter()
        stats = spec.build().stats(line_size)
        seconds = time.perf_counter() - start
        if self.cache is not None:
            self.cache.put(key, stats)
            self.manifest.record(key, spec.name, "-", "miss", seconds)
        else:
            self.manifest.record(key, spec.name, "-", "computed", seconds)
        return stats

    def as_runner(self):
        """Adapter for :func:`repro.core.api.compare_protocols`'s ``runner``."""

        def runner(pairs: Sequence[tuple[SystemConfig, Program]]) -> list[RunResult]:
            return self.run_points([SimPoint(c, p) for c, p in pairs])

        return runner

    # -- comparisons -----------------------------------------------------

    @staticmethod
    def _kinds(protocols) -> list[ProtocolKind]:
        # mirror compare_protocols: MESI (the baseline) always included first
        kinds = [ProtocolKind(p) for p in protocols]
        if ProtocolKind.MESI not in kinds:
            kinds.insert(0, ProtocolKind.MESI)
        return kinds

    def compare(
        self,
        cfg: SystemConfig,
        workload: WorkloadSpec | Program,
        protocols=ALL_PROTOCOLS,
    ) -> Comparison:
        """Run one workload under several protocols (points fan out)."""
        return self.map_compare([(cfg, workload)], protocols=protocols)[0]

    def map_compare(
        self,
        items: Sequence[tuple[SystemConfig, WorkloadSpec | Program]],
        protocols=ALL_PROTOCOLS,
    ) -> list[Comparison]:
        """Batch comparisons: every (item × protocol) point runs at once.

        This is the harness's main fan-out: a whole suite's worth of
        simulations forms one flat batch, so parallelism is not limited
        to the protocol count.  Under ``keep_going`` a failed point is
        simply absent from its comparison's ``results`` — downstream
        tables render the gap as ``FAILED`` (see
        ``experiments._normalized_table``).
        """
        kinds = self._kinds(protocols)
        points = [
            SimPoint(cfg.with_protocol(kind), workload)
            for cfg, workload in items
            for kind in kinds
        ]
        flat = self.run_points(points)
        comparisons = []
        for index, (_, workload) in enumerate(items):
            chunk = flat[index * len(kinds):(index + 1) * len(kinds)]
            comparisons.append(
                Comparison(
                    program_name=workload.name,
                    results={
                        kind: result
                        for kind, result in zip(kinds, chunk)
                        if not isinstance(result, PointFailure)
                    },
                )
            )
        return comparisons
