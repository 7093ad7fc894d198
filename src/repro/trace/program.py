"""A multithreaded program = one trace per thread plus metadata.

The :class:`Program` is what the simulator executes.  It also exposes the
aggregate workload-characterization statistics reported in the paper's
Table II (threads, accesses, regions, mean region length, shared-line
fraction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import TraceError
from .events import BARRIER, WRITE, ThreadTrace
from .stats import ProgramStats


@dataclass
class Program:
    """An immutable multithreaded workload.

    Attributes
    ----------
    traces:
        One :class:`ThreadTrace` per thread; thread *i* runs on core *i*.
    name:
        Workload name used in tables and figures.
    barrier_participants:
        Mapping from barrier id to the set of participating thread ids.
        Populated automatically: every thread whose trace contains the
        barrier participates in every episode of it.
    """

    traces: list[ThreadTrace]
    name: str = "unnamed"
    barrier_participants: dict[int, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.traces:
            raise TraceError("a program needs at least one thread")
        if not self.barrier_participants:
            self.barrier_participants = self._infer_barrier_participants()

    def _infer_barrier_participants(self) -> dict[int, frozenset[int]]:
        participants: dict[int, set[int]] = {}
        for tid, trace in enumerate(self.traces):
            mask = trace.kinds == BARRIER
            for bid in np.unique(trace.sync_ids[mask]):
                participants.setdefault(int(bid), set()).add(tid)
        return {bid: frozenset(tids) for bid, tids in participants.items()}

    @property
    def num_threads(self) -> int:
        return len(self.traces)

    def num_events(self) -> int:
        return sum(len(t) for t in self.traces)

    # -- Table II statistics -------------------------------------------------

    def line_sharing(self, line_size: int) -> tuple[int, int]:
        """Return ``(total distinct lines, lines touched by 2+ threads)``."""
        counts: dict[int, int] = {}
        for trace in self.traces:
            for line in trace.touched_lines(line_size):
                counts[int(line)] = counts.get(int(line), 0) + 1
        total = len(counts)
        shared = sum(1 for c in counts.values() if c >= 2)
        return total, shared

    def stats(self, line_size: int = 64) -> ProgramStats:
        """Compute the workload-characterization row for this program."""
        num_accesses = sum(t.num_accesses() for t in self.traces)
        num_writes = sum(int(np.count_nonzero(t.kinds == WRITE)) for t in self.traces)
        num_sync = sum(t.num_sync_ops() for t in self.traces)
        num_regions = sum(t.num_regions() for t in self.traces)
        total_lines, shared_lines = self.line_sharing(line_size)
        return ProgramStats(
            name=self.name,
            num_threads=self.num_threads,
            num_events=self.num_events(),
            num_accesses=num_accesses,
            num_writes=num_writes,
            num_sync_ops=num_sync,
            num_regions=num_regions,
            mean_region_length=(num_accesses / num_regions) if num_regions else 0.0,
            num_lines=total_lines,
            shared_lines=shared_lines,
        )

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, {self.num_threads} threads, "
            f"{self.num_events()} events)"
        )
