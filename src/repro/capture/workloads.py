"""Ported mini-benchmarks captured as real threaded Python programs.

Each function runs an actual multithreaded algorithm — real control
flow, real shared data structures, real lock/barrier/condition usage —
under a :class:`~repro.capture.session.CaptureSession` and returns the
captured :class:`~repro.trace.program.Program`.  These are the capture
subsystem's analogue of the paper's PARSEC/SPLASH-2 ports:

* :func:`capture_histogram` — block-partitioned histogram with a
  lock-sharded merge phase (canonical reduction).
* :func:`capture_blackscholes` — embarrassingly parallel option
  pricing map with a progress counter (PARSEC ``blackscholes`` shape).
* :func:`capture_pipeline` — bounded-buffer producer/consumer pipeline
  on a condition variable (PARSEC ``ferret``/``dedup`` shape).
* :func:`capture_workqueue` — work-stealing task queue with per-thread
  deques (Cilk-style runtime shape; schedule-dependent, which is why
  capture needs the deterministic scheduler).

All functions share the ``(num_threads, seed, scale, ...)`` signature
of synthetic generators, and :mod:`repro.synth.captured` registers them
in the workload registry under ``capture-*`` names.
"""

from __future__ import annotations

from ..common.errors import CaptureError
from ..common.rng import make_rng
from ..synth.base import scaled
from ..trace.program import Program
from .session import CaptureSession

#: bins in the captured histogram (two cache lines of 8-byte counters)
HISTOGRAM_BINS = 16


def capture_histogram(
    num_threads: int = 4,
    seed: int = 1,
    scale: float = 1.0,
    *,
    items_per_thread: int = 400,
) -> Program:
    """Block-partitioned histogram with a sharded merge.

    Each thread scans its slice of a shared input array, accumulates
    into private Python bins (untraced, like registers), then merges
    into the shared histogram taking one lock per bin shard.  A barrier
    separates the scan+merge phase from a final verification read.
    """
    session = CaptureSession(num_threads, seed=seed, name="capture-histogram")
    count = num_threads * scaled(items_per_thread, scale, minimum=8)
    rng = make_rng(seed, "capture", "histogram", "data")
    data = session.array(
        count, name="data", values=rng.integers(0, 256, size=count).tolist()
    )
    hist = session.array(HISTOGRAM_BINS, name="hist")
    shards = [session.lock() for _ in range(4)]
    done = session.barrier()
    total = session.struct(("checksum",), name="total")

    per_thread = count // num_threads

    def worker(tid: int) -> None:
        lo = tid * per_thread
        hi = count if tid == num_threads - 1 else lo + per_thread
        local = [0] * HISTOGRAM_BINS
        for i in range(lo, hi):
            value = data[i]
            session.compute(2)
            local[value * HISTOGRAM_BINS // 256] += 1
        shard_size = HISTOGRAM_BINS // len(shards)
        for shard, lock in enumerate(shards):
            with lock:
                for b in range(shard * shard_size, (shard + 1) * shard_size):
                    if local[b]:
                        hist.add(b, local[b])
        done.wait()
        if tid == 0:
            checksum = 0
            for b in range(HISTOGRAM_BINS):
                checksum += hist[b]
            total.checksum = checksum
        done.wait()

    program = session.run(worker)
    if total.peek("checksum") != count:
        raise CaptureError(
            f"histogram lost updates: {total.peek('checksum')} != {count}"
        )
    return program


def capture_blackscholes(
    num_threads: int = 4,
    seed: int = 1,
    scale: float = 1.0,
    *,
    options_per_thread: int = 300,
    report_every: int = 64,
) -> Program:
    """Data-parallel option-pricing map with a shared progress counter.

    Threads price disjoint slices of a shared options array (read
    input, compute, write result — the PARSEC ``blackscholes`` pattern)
    and periodically bump a lock-protected progress counter, giving the
    otherwise conflict-free map a light locking pulse.
    """
    session = CaptureSession(num_threads, seed=seed, name="capture-blackscholes")
    count = num_threads * scaled(options_per_thread, scale, minimum=8)
    rng = make_rng(seed, "capture", "blackscholes", "options")
    spots = session.array(
        count, name="spots", values=rng.integers(10, 200, size=count).tolist()
    )
    strikes = session.array(
        count, name="strikes", values=rng.integers(10, 200, size=count).tolist()
    )
    prices = session.array(count, name="prices")
    progress = session.struct(("priced",), name="progress")
    progress_lock = session.lock()
    done = session.barrier()

    per_thread = count // num_threads

    def worker(tid: int) -> None:
        lo = tid * per_thread
        hi = count if tid == num_threads - 1 else lo + per_thread
        since_report = 0
        for i in range(lo, hi):
            spot = spots[i]
            strike = strikes[i]
            # a cheap stand-in for the closed-form price: intrinsic
            # value plus a convexity fudge, all integer math
            session.compute(24)
            price = max(spot - strike, 0) + (spot * strike) // 512
            prices[i] = price
            since_report += 1
            if since_report == report_every:
                with progress_lock:
                    progress.priced += since_report
                since_report = 0
        if since_report:
            with progress_lock:
                progress.priced += since_report
        done.wait()

    program = session.run(worker)
    if progress.peek("priced") != count:
        raise CaptureError(
            f"blackscholes lost updates: {progress.peek('priced')} != {count}"
        )
    return program


def capture_pipeline(
    num_threads: int = 4,
    seed: int = 1,
    scale: float = 1.0,
    *,
    items_per_producer: int = 150,
    queue_capacity: int = 8,
) -> Program:
    """Bounded-buffer producer/consumer pipeline on a condition variable.

    The first half of the threads produce seeded work items into a
    shared ring buffer, the second half consume and fold them into a
    shared sink; ``not_full`` / ``not_empty`` conditions on one queue
    lock coordinate, exactly like ``queue.Queue``'s internals.
    """
    if num_threads < 2:
        raise CaptureError("capture-pipeline needs at least 2 threads")
    session = CaptureSession(num_threads, seed=seed, name="capture-pipeline")
    num_producers = num_threads // 2
    num_consumers = num_threads - num_producers
    per_producer = scaled(items_per_producer, scale, minimum=4)
    total_items = num_producers * per_producer

    ring = session.array(queue_capacity, name="ring")
    state = session.struct(
        ("head", "tail", "fill", "produced", "consumed"), name="qstate"
    )
    sink = session.array(num_consumers, name="sink")
    qlock = session.lock()
    not_full = session.condition(qlock)
    not_empty = session.condition(qlock)

    def produce(tid: int) -> None:
        rng = make_rng(session.seed, "capture", "pipeline", "items", tid)
        for _ in range(per_producer):
            item = int(rng.integers(1, 100))
            session.compute(8)
            with qlock:
                while state.fill == queue_capacity:
                    not_full.wait()
                tail = state.tail
                ring[tail] = item
                state.tail = (tail + 1) % queue_capacity
                state.fill += 1
                state.produced += 1
                not_empty.notify()

    def consume(tid: int) -> None:
        slot = tid - num_producers
        acc = 0
        while True:
            with qlock:
                while state.fill == 0:
                    if state.consumed + state.fill >= total_items:
                        # drained and production finished: wake peers
                        # stuck in the same predicate loop and leave
                        not_empty.notify_all()
                        sink[slot] = acc
                        return
                    not_empty.wait()
                head = state.head
                item = ring[head]
                state.head = (head + 1) % queue_capacity
                state.fill -= 1
                state.consumed += 1
                not_full.notify()
            session.compute(16)
            acc += item

    def worker(tid: int) -> None:
        if tid < num_producers:
            produce(tid)
        else:
            consume(tid)

    return session.run(worker)


def capture_workqueue(
    num_threads: int = 4,
    seed: int = 1,
    scale: float = 1.0,
    *,
    tasks_per_thread: int = 120,
    deque_capacity: int | None = None,
) -> Program:
    """Work-stealing task runner with per-thread deques.

    Every thread owns a lock-protected deque seeded with an *uneven*
    share of the tasks; owners pop from the bottom, thieves steal from
    the top of a seeded victim when their own deque runs dry.  Which
    thread executes which task depends entirely on the schedule — the
    workload that motivates deterministic capture.
    """
    session = CaptureSession(num_threads, seed=seed, name="capture-workqueue")
    total_tasks = num_threads * scaled(tasks_per_thread, scale, minimum=4)
    if deque_capacity is None:
        deque_capacity = total_tasks  # any initial share fits
    rng = make_rng(seed, "capture", "workqueue", "tasks")

    # uneven initial distribution: thread 0 gets the lion's share
    weights = rng.integers(1, 1 + 3 * num_threads, size=num_threads)
    shares = (weights * total_tasks // weights.sum()).tolist()
    shares[0] += total_tasks - sum(shares)

    deques = []
    locks = []
    tops = []
    for owner in range(num_threads):
        if shares[owner] > deque_capacity:
            raise CaptureError("deque_capacity too small for the task shares")
        tasks = rng.integers(1, 50, size=deque_capacity).tolist()
        deques.append(session.array(deque_capacity, name=f"deque{owner}", values=tasks))
        locks.append(session.lock())
        # top/bottom indices plus this owner's completed-task count
        tops.append(
            session.struct(("top", "bottom", "done_count"), name=f"ends{owner}")
        )
    remaining = session.struct(("tasks",), name="remaining")
    remaining_lock = session.lock()
    results = session.array(num_threads, name="results")
    finish = session.barrier()

    def setup(tid: int) -> None:
        # publish this thread's initial bottom index (traced writes)
        tops[tid].top = 0
        tops[tid].bottom = shares[tid]

    def try_take(tid: int, victim: int) -> int | None:
        """Pop from own bottom / steal from victim's top; None if empty."""
        with locks[victim]:
            ends = tops[victim]
            top = ends.top
            bottom = ends.bottom
            if top >= bottom:
                return None
            if victim == tid:
                bottom -= 1
                ends.bottom = bottom
                return deques[victim][bottom]
            ends.top = top + 1
            return deques[victim][top]

    def worker(tid: int) -> None:
        steal_rng = make_rng(session.seed, "capture", "workqueue", "steal", tid)
        setup(tid)
        finish.wait()  # everyone's deque is published before stealing starts
        acc = 0
        executed = 0
        while True:
            with remaining_lock:
                if remaining.tasks >= total_tasks:
                    break
            task = try_take(tid, tid)
            if task is None:
                victim = int(steal_rng.integers(0, num_threads))
                task = try_take(tid, victim)
                if task is None:
                    continue
            session.compute(4 * task)
            acc += task
            executed += 1
            with remaining_lock:
                remaining.tasks += 1
        results[tid] = acc
        tops[tid].done_count = executed
        finish.wait()

    program = session.run(worker)
    executed = sum(tops[tid].peek("done_count") for tid in range(num_threads))
    if executed != total_tasks:
        raise CaptureError(
            f"workqueue executed {executed} tasks, expected {total_tasks}"
        )
    return program


def capture_racy_counter(
    num_threads: int = 4,
    seed: int = 1,
    scale: float = 1.0,
    *,
    increments_per_thread: int = 60,
) -> Program:
    """A deliberately racy shared counter (conflict-detection exercise).

    Threads bump a shared counter *without* taking the lock for most
    increments (a classic lost-update bug), synchronizing only at a
    final barrier.  The captured program carries genuine region
    conflicts, which makes it the capture suite's analogue of the
    synthetic ``racy-*`` workloads: CE/CE+/ARC must flag it and the
    brute-force oracle must agree.
    """
    session = CaptureSession(
        num_threads,
        seed=seed,
        name="capture-racy-counter",
        switch_every=3,  # preempt mid-region so racy updates interleave
    )
    # floor high enough that even tiny presets exhibit the race
    increments = scaled(increments_per_thread, scale, minimum=16)
    counter = session.struct(("value", "locked_value"), name="counter")
    lock = session.lock()
    done = session.barrier()

    def worker(tid: int) -> None:
        for i in range(increments):
            session.compute(3)
            if i % 4 == 0:
                with lock:
                    counter.locked_value += 1
            else:
                counter.value += 1  # unsynchronized read-modify-write
        done.wait()

    return session.run(worker)


#: name -> capture function, in registration order
CAPTURE_WORKLOADS = {
    "capture-histogram": capture_histogram,
    "capture-blackscholes": capture_blackscholes,
    "capture-pipeline": capture_pipeline,
    "capture-workqueue": capture_workqueue,
    "capture-racy-counter": capture_racy_counter,
}
