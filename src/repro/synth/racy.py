"""Racy workloads — programs with genuine region conflicts.

These drive the conflicts-detected table: threads perform mostly
well-structured private/lock-protected work, but with a configurable
probability an iteration also touches one of a few *racy words* without
synchronization.  Different threads' regions overlap freely, so
overlapping-byte accesses (at least one a write) are true region
conflicts that every conflict-detecting protocol must report and MESI
silently allows.

Two variants:

* ``racy-writers`` — racy accesses are writes (W-W and W-R conflicts).
* ``racy-readers`` — one thread writes the racy words, the others read
  them (R-W conflicts only).

The module also plants races in programs that have none — metamorphic
testing for the conflict detectors.  Take any well-synchronized
program, plant one race with :func:`inject_race`, and the detectors
must go from silent to reporting a conflict on exactly the planted line
(:func:`injected_line`).  This turns the whole workload suite into
detector test vectors.
"""

from __future__ import annotations

import numpy as np

from ..common.errors import TraceError
from ..common.rng import make_rng
from ..trace.events import EVENT_DTYPE, READ, WRITE, ThreadTrace
from ..trace.program import Program
from .base import scaled, workload
from .patterns import AddressSpace, TraceAssembler, random_span, strided_span

_REGION_LOCK_BASE = 2000


def _generate(
    num_threads: int,
    seed: int,
    scale: float,
    *,
    writers_race: bool,
    iterations: int,
    racy_words: int,
    race_period: int,
    private_ops: int,
) -> Program:
    iters = scaled(iterations, scale)
    space = AddressSpace()
    racy_addrs = strided_span(space.alloc_lines((racy_words * 8 + 63) // 64), racy_words)
    privates = space.alloc_per_thread(num_threads, 32 * 1024)

    traces = []
    for tid in range(num_threads):
        rng = make_rng(seed, "racy", tid)
        asm = TraceAssembler()
        my_lock = _REGION_LOCK_BASE + tid
        for it in range(iters):
            # bound the region with an uncontended private lock
            asm.acquire(my_lock)
            asm.release(my_lock)
            if it % race_period == 0:
                # Every thread touches the same racy word in the same
                # iteration: the loosely-synchronized regions overlap in
                # time, so the conflict manifests robustly even at small
                # scales and for eager (CE-style) detection windows.
                word = (it // race_period) % racy_words
                addr = int(racy_addrs[word])
                if writers_race or tid == 0:
                    asm.write(addr)
                else:
                    asm.read(addr)
            asm.accesses(
                random_span(rng, privates[tid], 32 * 1024, private_ops),
                rng.random(private_ops) < 0.4,
                gap=1,
            )
        traces.append(asm.build())
    return Program(traces, name="racy")


@workload("racy-writers")
def racy_writers(
    num_threads: int,
    seed: int,
    scale: float,
    *,
    iterations: int = 200,
    racy_words: int = 4,
    race_period: int = 6,
    private_ops: int = 16,
) -> Program:
    return _generate(
        num_threads,
        seed,
        scale,
        writers_race=True,
        iterations=iterations,
        racy_words=racy_words,
        race_period=race_period,
        private_ops=private_ops,
    )


@workload("racy-readers")
def racy_readers(
    num_threads: int,
    seed: int,
    scale: float,
    *,
    iterations: int = 200,
    racy_words: int = 4,
    race_period: int = 6,
    private_ops: int = 16,
) -> Program:
    return _generate(
        num_threads,
        seed,
        scale,
        writers_race=False,
        iterations=iterations,
        racy_words=racy_words,
        race_period=race_period,
        private_ops=private_ops,
    )


# --------------------------------------------------------------------------
# race injection
# --------------------------------------------------------------------------
#
# :func:`inject_race` appends, to two chosen threads, a write (and a read
# or write) to a fresh line *outside* any lock, padded with compute gaps
# so the two racing regions overlap in time regardless of how the
# schedule drifts.  Appending at the *end* of the traces (after all
# existing synchronization) keeps the original program valid — locks
# stay balanced, barrier counts are untouched — and puts the racing
# accesses in the threads' final regions, which never end and therefore
# always overlap.

#: bytes per line assumed for placing a planted race (library default)
_LINE = 64


def injected_line(program: Program) -> int:
    """The line address :func:`inject_race` plants its race on: the
    first line past every address the program touches."""
    top = 0
    for trace in program.traces:
        if len(trace):
            accessed = trace.addrs[trace.kinds <= WRITE]
            if len(accessed):
                top = max(top, int(accessed.max()))
    return (top // _LINE + 2) * _LINE


def _append_events(trace: ThreadTrace, rows: list[tuple]) -> ThreadTrace:
    extra = np.array(rows, dtype=EVENT_DTYPE)
    return ThreadTrace(np.concatenate([trace.events, extra]))


def inject_race(
    program: Program,
    *,
    first_thread: int = 0,
    second_thread: int = 1,
    second_is_write: bool = True,
    pad_gap: int = 2000,
) -> Program:
    """Return a copy of ``program`` with one planted race.

    ``first_thread`` writes the planted word, then spins on private
    reads for a long time (``pad_gap`` cycles each) so its final region
    is still running when ``second_thread`` — whose access is delayed by
    one padded read — touches the same word.  At least one of the two
    accesses is a write, so the pair is a genuine region conflict.
    """
    if first_thread == second_thread:
        raise TraceError("race needs two distinct threads")
    for tid in (first_thread, second_thread):
        if not 0 <= tid < program.num_threads:
            raise TraceError(f"thread {tid} out of range")

    line = injected_line(program)
    pad_base = line + _LINE  # private padding area, disjoint per thread

    traces = list(program.traces)
    # Writer: racy write, then a long tail of padded private reads that
    # keeps its final region open.
    writer_rows = [(WRITE, line, 8, -1, 0)]
    for i in range(8):
        writer_rows.append((READ, pad_base + i * 8, 8, -1, pad_gap))
    traces[first_thread] = _append_events(traces[first_thread], writer_rows)

    # Second thread: one padded private read (so its racy access lands
    # inside the writer's tail), then the conflicting access.
    second_kind = WRITE if second_is_write else READ
    second_rows = [
        (READ, pad_base + _LINE, 8, -1, pad_gap),
        (second_kind, line, 8, -1, 0),
    ]
    traces[second_thread] = _append_events(traces[second_thread], second_rows)

    return Program(
        traces,
        name=f"{program.name}+race",
        barrier_participants=dict(program.barrier_participants),
    )
