"""Simulation-free happens-before analysis of a :class:`Program`.

Consumes the per-thread traces directly — no cache, NoC or protocol
machinery — and classifies every conflicting byte-level access pair
(overlapping bytes, different threads, at least one write) as
**HB-ordered**, **lock-protected** or a **race**, under the *must*
happens-before order that holds in every legal schedule:

* **program order** within a thread;
* **barrier episodes**: the *n*-th arrival of each participant at
  barrier *b* forms episode *n*; everything any participant did before
  arriving happens-before everything any participant does after
  departing.  Episode matching is schedule-independent, so these edges
  exist in every run.
* **mutual exclusion**: two critical sections of the same lock never
  overlap in time, in any schedule.  A conflicting pair whose accesses
  both hold a common lock is therefore never a region conflict.  (The
  *direction* in which two critical sections serialize varies by
  schedule, so lock edges contribute exclusion, not ordering.)

Anything left unordered and unprotected can overlap in *some* legal
schedule — it is a region-conflict race in the paper's region-overlap
semantics.  Two soundness theorems relate this to the run-time oracles
(proved in docs/ANALYSIS.md, enforced by tests/test_analysis_oracle.py):

* every conflict in :func:`repro.core.oracle.overlap_conflicts` of
  *any* recorded run is an HB race reported here (same region-pair key);
* every conflict any detector (CE, CE+, ARC) reports is an HB race.

Ordering queries use FastTrack-style epochs (see ``vectorclock.py``):
thread clocks advance only at barrier arrivals, so an access's position
in the order is a single ``phase@thread`` epoch and each query is O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from ..common.errors import TraceError
from ..trace.events import ACQUIRE, BARRIER, RELEASE, WRITE
from ..trace.program import Program
from ..trace.regions import region_ids
from .vectorclock import Epoch, VectorClock

#: classification labels returned by :meth:`HbIndex.classify`
SAME_THREAD = "same-thread"
NO_CONFLICT = "no-conflict"
HB_ORDERED = "hb-ordered"
LOCK_PROTECTED = "lock-protected"
RACE = "race"


class BarrierStallError(TraceError):
    """Barrier episodes can never all complete — guaranteed deadlock.

    Raised when threads wait at barriers whose participant sets cannot
    be satisfied (mismatched episode counts, or cross-thread barrier
    sequences in incompatible orders).  ``stalled`` maps each stuck
    thread to the barrier id it waits on.
    """

    def __init__(self, stalled: dict[int, int]):
        self.stalled = dict(stalled)
        waits = ", ".join(f"thread {t} at barrier {b}" for t, b in sorted(stalled.items()))
        super().__init__(f"barrier synchronization can never complete: {waits}")


class AccessRace(NamedTuple):
    """One racy byte-level access pair, normalized so
    ``(first_thread, first_event)`` is the lexicographically smaller
    (thread, region) side."""

    line: int
    byte_mask: int
    first_thread: int
    first_event: int
    first_region: int
    first_is_write: bool
    second_thread: int
    second_event: int
    second_region: int
    second_is_write: bool


@dataclass
class HbIndex:
    """The happens-before structure of one program.

    Per thread and event: the barrier *phase* (scalar clock), the
    lockset id, and the SFR region index.  Per thread and phase: the
    frozen vector clock governing that phase.  Everything an O(1)
    ordering query needs.
    """

    num_threads: int
    #: per thread, per event: barrier phase index (the event's epoch clock)
    phase_of: list[np.ndarray]
    #: per thread, per phase: frozen vector clock for events in that phase
    clocks: list[list[tuple[int, ...]]]
    #: per thread, per event: index into :attr:`locksets`
    lockset_of: list[np.ndarray]
    #: interned locksets (``locksets[0]`` is always the empty set)
    locksets: list[frozenset[int]]
    #: per thread, per event: SFR region index (matches the simulator's)
    region_of: list[np.ndarray]

    def epoch(self, tid: int, event: int) -> Epoch:
        return Epoch(tid, int(self.phase_of[tid][event]))

    def clock(self, tid: int, phase: int) -> tuple[int, ...]:
        return self.clocks[tid][phase]

    def ordered(self, t1: int, e1: int, t2: int, e2: int) -> bool:
        """Happens-before ordered (either direction)?  Same-thread events
        are always ordered (program order)."""
        if t1 == t2:
            return True
        p1 = int(self.phase_of[t1][e1])
        p2 = int(self.phase_of[t2][e2])
        return self._phases_ordered(t1, p1, t2, p2)

    def _phases_ordered(self, t1: int, p1: int, t2: int, p2: int) -> bool:
        return self.clocks[t2][p2][t1] > p1 or self.clocks[t1][p1][t2] > p2

    def locks_shared(self, t1: int, e1: int, t2: int, e2: int) -> bool:
        """Do the two events hold a common lock?"""
        ls1 = self.locksets[int(self.lockset_of[t1][e1])]
        ls2 = self.locksets[int(self.lockset_of[t2][e2])]
        return not ls1.isdisjoint(ls2)

    def classify(
        self, program: Program, t1: int, e1: int, t2: int, e2: int,
        line_size: int = 64,
    ) -> str:
        """Classify one pair of data accesses.

        Returns ``same-thread``, ``no-conflict`` (disjoint bytes or both
        reads), ``hb-ordered``, ``lock-protected`` or ``race``.
        """
        if t1 == t2:
            return SAME_THREAD
        a, b = program.traces[t1].events[e1], program.traces[t2].events[e2]
        if a["kind"] > WRITE or b["kind"] > WRITE:
            raise TraceError("classify expects data access events")
        if not (a["kind"] == WRITE or b["kind"] == WRITE):
            return NO_CONFLICT
        if int(a["addr"]) // line_size != int(b["addr"]) // line_size:
            return NO_CONFLICT
        mask_a = ((1 << int(a["size"])) - 1) << (int(a["addr"]) % line_size)
        mask_b = ((1 << int(b["size"])) - 1) << (int(b["addr"]) % line_size)
        if not mask_a & mask_b:
            return NO_CONFLICT
        if self.ordered(t1, e1, t2, e2):
            return HB_ORDERED
        if self.locks_shared(t1, e1, t2, e2):
            return LOCK_PROTECTED
        return RACE


# --------------------------------------------------------------------------
# building the index
# --------------------------------------------------------------------------


def _thread_locksets(
    trace, interned: dict[frozenset[int], int], locksets: list[frozenset[int]]
) -> np.ndarray:
    """Lockset id of every event (accesses between acquire and release
    hold the lock; the sync events themselves carry the pre-op set)."""
    n = len(trace)
    out = np.zeros(n, dtype=np.int32)
    kinds = trace.kinds
    sync_positions = np.nonzero(kinds >= ACQUIRE)[0]
    held: list[int] = []
    current = 0  # id of frozenset()
    prev = 0
    for pos in sync_positions.tolist():
        out[prev: pos + 1] = current
        kind = int(kinds[pos])
        sid = int(trace.sync_ids[pos])
        if kind == ACQUIRE:
            held.append(sid)
        elif kind == RELEASE and sid in held:
            held.remove(sid)
        key = frozenset(held)
        current = interned.get(key)
        if current is None:
            current = len(locksets)
            interned[key] = current
            locksets.append(key)
        prev = pos + 1
    out[prev:] = current
    return out


def build_hb(program: Program) -> HbIndex:
    """Build the happens-before index for a program.

    Propagates vector clocks through barrier episodes with a tiny
    episode scheduler (no timing, no memory system): each thread's
    *n*-th arrival at barrier *b* joins episode *n*; when all
    participants have arrived, their clocks join and each participant
    ticks its own component.  Raises :class:`BarrierStallError` if the
    episodes cannot all complete — the static analogue of the
    simulator's deadlock detection.
    """
    n = program.num_threads
    arrival_seqs = [
        t.sync_ids[t.kinds == BARRIER].tolist() for t in program.traces
    ]
    participants = {
        bid: set(tids) for bid, tids in program.barrier_participants.items()
    }

    vcs = [VectorClock(n) for _ in range(n)]
    clocks: list[list[tuple[int, ...]]] = [[vcs[t].freeze()] for t in range(n)]
    pos = [0] * n
    waiting_at: dict[int, int] = {}  # tid -> barrier id it has arrived at
    arrived: dict[int, set[int]] = {}  # barrier id -> arrived tids

    pending = sum(len(seq) for seq in arrival_seqs)
    while pending:
        progressed = False
        for tid in range(n):
            if tid in waiting_at or pos[tid] >= len(arrival_seqs[tid]):
                continue
            bid = arrival_seqs[tid][pos[tid]]
            waiting_at[tid] = bid
            arrived.setdefault(bid, set()).add(tid)
            vcs[tid].tick(tid)  # the arrival ends the thread's phase
            progressed = True

        for bid, group in arrived.items():
            if group != participants.get(bid, set()):
                continue
            joined = VectorClock(n)
            for tid in group:
                joined.join(vcs[tid])
            frozen = joined.freeze()
            for tid in group:
                vcs[tid] = joined.copy()
                clocks[tid].append(frozen)
                pos[tid] += 1
                del waiting_at[tid]
            group.clear()
            progressed = True
        pending = sum(len(seq) - p for seq, p in zip(arrival_seqs, pos))
        if pending and not progressed:
            raise BarrierStallError(waiting_at)

    interned: dict[frozenset[int], int] = {frozenset(): 0}
    locksets: list[frozenset[int]] = [frozenset()]
    phase_of = [
        np.cumsum(t.kinds == BARRIER).astype(np.int64) for t in program.traces
    ]
    lockset_of = [
        _thread_locksets(t, interned, locksets) for t in program.traces
    ]
    region_of = [region_ids(t) for t in program.traces]
    return HbIndex(
        num_threads=n,
        phase_of=phase_of,
        clocks=clocks,
        lockset_of=lockset_of,
        locksets=locksets,
        region_of=region_of,
    )


# --------------------------------------------------------------------------
# race scan
# --------------------------------------------------------------------------


class _Group:
    """All of one thread's accesses to one line within one (phase,
    lockset) context.  Every member shares an epoch and a lockset, so
    one O(1) check settles ordering/protection for the whole group —
    the access-level pair walk only runs for group pairs that race."""

    __slots__ = ("tid", "phase", "lockset_id", "mask", "write_mask", "members")

    def __init__(self, tid: int, phase: int, lockset_id: int):
        self.tid = tid
        self.phase = phase
        self.lockset_id = lockset_id
        self.mask = 0
        self.write_mask = 0
        #: (event index, region, byte mask, is_write)
        self.members: list[tuple[int, int, int, bool]] = []


def _candidate_lines(program: Program, line_size: int) -> np.ndarray:
    """Lines that could host a conflict: touched by 2+ threads, with at
    least one write somewhere.  Fully vectorized — this is the filter
    that keeps private traffic (the bulk of every workload) out of the
    grouping pass."""
    per_thread_lines = []
    written: set[int] = set()
    for trace in program.traces:
        access = trace.kinds <= WRITE
        lines = (trace.addrs[access] // line_size) * line_size
        per_thread_lines.append(np.unique(lines))
        wlines = (trace.addrs[trace.kinds == WRITE] // line_size) * line_size
        written.update(np.unique(wlines).tolist())
    if not per_thread_lines:
        return np.zeros(0, dtype=np.int64)
    all_lines = np.concatenate(per_thread_lines)
    uniq, counts = np.unique(all_lines, return_counts=True)
    shared = uniq[counts >= 2]
    if not len(shared) or not written:
        return np.zeros(0, dtype=np.int64)
    written_arr = np.fromiter(written, dtype=np.uint64, count=len(written))
    return shared[np.isin(shared, written_arr)].astype(np.int64)


def iter_access_races(
    program: Program, hb: HbIndex | None = None, line_size: int = 64
) -> Iterator[AccessRace]:
    """Yield every racy conflicting byte-level access pair.

    Pairs are normalized (smaller ``(thread, region)`` first) and
    yielded grouped by line.  The scan is two-tier: candidate lines
    (touched by 2+ threads, with a write) are grouped into
    (thread, phase, lockset) groups whose ordering is settled by one
    epoch probe each; only racy *group* pairs expand to access pairs.
    """
    if hb is None:
        hb = build_hb(program)

    candidates = _candidate_lines(program, line_size)
    if not len(candidates):
        return

    per_line: dict[int, list[_Group]] = {}
    group_index: dict[tuple[int, int, int, int], _Group] = {}

    for tid, trace in enumerate(program.traces):
        sel = np.nonzero(trace.kinds <= WRITE)[0]
        if len(sel) == 0:
            continue
        addrs = trace.addrs[sel]
        offsets = addrs % np.uint64(line_size)
        lines = (addrs - offsets).astype(np.int64)
        on_candidate = np.isin(lines, candidates)
        if not on_candidate.any():
            continue
        sel = sel[on_candidate]
        addrs = addrs[on_candidate]
        offsets = offsets[on_candidate]
        lines = lines[on_candidate]
        sizes = trace.sizes[trace.kinds <= WRITE][on_candidate].astype(np.uint64)
        masks = ((np.uint64(1) << sizes) - np.uint64(1)) << offsets
        writes = trace.kinds[sel] == WRITE
        phases = hb.phase_of[tid][sel]
        locksets = hb.lockset_of[tid][sel]
        regions = hb.region_of[tid][sel]
        for event, line, mask, write, phase, lsid, region in zip(
            sel.tolist(), lines.tolist(), masks.tolist(), writes.tolist(),
            phases.tolist(), locksets.tolist(), regions.tolist(),
        ):
            key = (line, tid, phase, lsid)
            group = group_index.get(key)
            if group is None:
                group = _Group(tid, phase, lsid)
                group_index[key] = group
                per_line.setdefault(line, []).append(group)
            group.mask |= mask
            if write:
                group.write_mask |= mask
            group.members.append((event, region, mask, write))

    for line in sorted(per_line):
        groups = per_line[line]
        for i, g1 in enumerate(groups):
            for g2 in groups[i + 1:]:
                if g1.tid == g2.tid:
                    continue
                if not ((g1.write_mask & g2.mask) | (g2.write_mask & g1.mask)):
                    continue
                if hb._phases_ordered(g1.tid, g1.phase, g2.tid, g2.phase):
                    continue
                if not hb.locksets[g1.lockset_id].isdisjoint(
                    hb.locksets[g2.lockset_id]
                ):
                    continue
                yield from _expand(line, g1, g2)


def _expand(line: int, g1: _Group, g2: _Group) -> Iterator[AccessRace]:
    """Access-level pairs of a racy group pair (byte overlap, 1+ write)."""
    for e1, r1, m1, w1 in g1.members:
        for e2, r2, m2, w2 in g2.members:
            if not (w1 or w2):
                continue
            mask = m1 & m2
            if not mask:
                continue
            if (g1.tid, r1) <= (g2.tid, r2):
                yield AccessRace(line, mask, g1.tid, e1, r1, w1,
                                 g2.tid, e2, r2, w2)
            else:
                yield AccessRace(line, mask, g2.tid, e2, r2, w2,
                                 g1.tid, e1, r1, w1)


def access_races(
    program: Program, hb: HbIndex | None = None, line_size: int = 64
) -> list[AccessRace]:
    """Materialized :func:`iter_access_races` (small programs/tests)."""
    return list(iter_access_races(program, hb, line_size))
