"""Trace event representation.

A *trace* is the sequence of shared-memory and synchronization operations
one thread performs.  Traces are stored as NumPy structured arrays (one
record per event) rather than per-event Python objects: the simulator's
hot loop indexes columns directly, and a million-event trace costs a few
MB instead of hundreds.

Event kinds
-----------
``READ`` / ``WRITE``
    A data access of 1–8 bytes at ``addr``.  Accesses never straddle a
    cache-line boundary (the builder splits them).
``ACQUIRE`` / ``RELEASE``
    Lock acquire/release on lock ``sync_id``.  These delimit
    synchronization-free regions and order threads: an acquire of lock L
    happens-after the previous release of L.
``BARRIER``
    Barrier ``sync_id``; all participating threads arrive, then all leave
    together.  Also a region boundary.

Each event carries ``gap``: the number of non-memory "compute" cycles the
thread spends *before* issuing the event.  Workload generators use gaps to
model arithmetic intensity.
"""

from __future__ import annotations

from array import array

import numpy as np

from ..common.errors import TraceError

# Event kind codes (u1 column in the structured dtype).
READ = 0
WRITE = 1
ACQUIRE = 2
RELEASE = 3
BARRIER = 4

KIND_NAMES = {
    READ: "read",
    WRITE: "write",
    ACQUIRE: "acquire",
    RELEASE: "release",
    BARRIER: "barrier",
}

SYNC_KINDS = frozenset({ACQUIRE, RELEASE, BARRIER})
ACCESS_KINDS = frozenset({READ, WRITE})

#: Structured dtype of one trace event.
EVENT_DTYPE = np.dtype(
    [
        ("kind", np.uint8),
        ("addr", np.uint64),
        ("size", np.uint8),
        ("sync_id", np.int32),
        ("gap", np.uint16),
    ]
)

#: ``array.array`` typecode of each field, in :meth:`ThreadTrace.columns`
#: order; every itemsize equals the field's ``EVENT_DTYPE`` itemsize
_COLUMN_TYPECODES = (
    ("kind", "B"),
    ("addr", "Q"),
    ("size", "B"),
    ("sync_id", "i"),
    ("gap", "H"),
)

MAX_ACCESS_SIZE = 8


class ThreadTrace:
    """An immutable per-thread event sequence.

    Wraps the structured array and exposes cheap column views plus a few
    derived statistics.  Construct via :class:`repro.trace.builder.TraceBuilder`
    or :meth:`from_arrays`.
    """

    __slots__ = ("events",)

    def __init__(self, events: np.ndarray):
        if events.dtype != EVENT_DTYPE:
            raise TraceError(f"expected dtype {EVENT_DTYPE}, got {events.dtype}")
        self.events = events
        self.events.setflags(write=False)

    @classmethod
    def from_arrays(
        cls,
        kinds: np.ndarray,
        addrs: np.ndarray,
        sizes: np.ndarray,
        sync_ids: np.ndarray,
        gaps: np.ndarray | None = None,
    ) -> "ThreadTrace":
        """Assemble a trace from parallel column arrays (vectorized path
        used by workload generators)."""
        n = len(kinds)
        for name, col in (
            ("addrs", addrs),
            ("sizes", sizes),
            ("sync_ids", sync_ids),
        ):
            if len(col) != n:
                raise TraceError(f"column {name} has length {len(col)}, expected {n}")
        events = np.empty(n, dtype=EVENT_DTYPE)
        events["kind"] = kinds
        events["addr"] = addrs
        events["size"] = sizes
        events["sync_id"] = sync_ids
        events["gap"] = gaps if gaps is not None else 0
        return cls(events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ThreadTrace):
            return NotImplemented
        return len(self) == len(other) and bool(
            np.array_equal(self.events, other.events)
        )

    def __hash__(self):  # mutable payload semantics: identity hashing only
        return id(self)

    # -- column views ------------------------------------------------------

    @property
    def kinds(self) -> np.ndarray:
        return self.events["kind"]

    @property
    def addrs(self) -> np.ndarray:
        return self.events["addr"]

    @property
    def sizes(self) -> np.ndarray:
        return self.events["size"]

    @property
    def sync_ids(self) -> np.ndarray:
        return self.events["sync_id"]

    @property
    def gaps(self) -> np.ndarray:
        return self.events["gap"]

    def columns(self) -> tuple[array, ...]:
        """The five event columns as ``array.array`` at native width.

        This is the simulator's ingestion interface.  Indexing an
        ``array.array`` yields a plain Python int, which the hot loop
        handles several times faster than a NumPy scalar, while each
        column keeps the field's ``EVENT_DTYPE`` width (an address costs
        8 bytes, not a list slot plus an int object).  Order:
        ``(kinds, addrs, sizes, sync_ids, gaps)``.
        """
        columns = []
        for name, code in _COLUMN_TYPECODES:
            column = array(code)
            column.frombytes(np.ascontiguousarray(self.events[name]).view(np.uint8))
            columns.append(column)
        return tuple(columns)

    # -- derived statistics --------------------------------------------------

    def num_accesses(self) -> int:
        """Count of READ/WRITE events."""
        return int(np.count_nonzero(self.kinds <= WRITE))

    def num_writes(self) -> int:
        return int(np.count_nonzero(self.kinds == WRITE))

    def num_sync_ops(self) -> int:
        return int(np.count_nonzero(self.kinds >= ACQUIRE))

    def num_regions(self) -> int:
        """Number of synchronization-free regions.

        Every sync op terminates the current region and begins a new one;
        an empty trace has zero regions, otherwise ``sync ops + 1``.
        """
        if len(self) == 0:
            return 0
        return self.num_sync_ops() + 1

    def touched_lines(self, line_size: int) -> np.ndarray:
        """Sorted unique cache-line base addresses accessed by this trace."""
        mask = self.kinds <= WRITE
        lines = (self.addrs[mask] // line_size) * line_size
        return np.unique(lines)

    def describe(self) -> str:
        return (
            f"ThreadTrace({len(self)} events: {self.num_accesses()} accesses, "
            f"{self.num_writes()} writes, {self.num_sync_ops()} sync ops, "
            f"{self.num_regions()} regions)"
        )

    def __repr__(self) -> str:
        return self.describe()
