"""Protocol interface and shared coherence structures.

A :class:`CoherenceProtocol` maps each trace event to a latency while
updating the machine's traffic/energy accounting and (for CE/CE+/ARC)
detecting region conflicts.  The simulator calls exactly two methods:

``access(core, addr, size, is_write, cycle) -> latency``
    One data access.

``region_boundary(core, cycle, kind) -> latency``
    The core executed a synchronization operation (``kind`` is the trace
    event kind: ACQUIRE, RELEASE or BARRIER).  The protocol performs its
    boundary work (CE metadata clearing, ARC self-downgrade and
    self-invalidation) and advances the core's region.

Region tracking lives here: ``self.region[core]`` is the core's current
region index and ``self.region_start[core]`` the cycle it began.  Access
metadata everywhere is tagged with the region index that created it and
is *live* only while that region is the core's current one — the lazy,
epoch-style clearing CE's hardware implements with flash-clear and ARC
with epoch tags.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable

from ..common.errors import ConflictRecord, RegionConflictError, SimulationError

if TYPE_CHECKING:
    from ..core.machine import Machine

# L1 M(O)ESI states (invalid = line absent from the cache).  The
# numeric order encodes the write-permission lattice S < O < E < M: a
# write hit is silent if and only if ``state >= E`` (E/M imply no other
# copy exists).  O deliberately sits *below* E even though it holds
# dirty data — an Owned line may have S copies outstanding, so a write
# to it must take the upgrade path and invalidate the sharers first,
# exactly like a write to S.  tests/test_state_lattice.py pins this.
S = 1
O = 2
E = 3
M = 4

STATE_NAMES = {S: "S", O: "O", E: "E", M: "M"}

#: states holding dirty data that must write back when the line leaves
DIRTY_STATES = frozenset({M, O})


class MesiLine:
    """Payload of one L1 line under MESI/CE/CE+.

    The mask fields are only used by the conflict-detecting subclasses;
    they are tagged with the region index that set them (``region``) and
    mean nothing once that region ends.
    """

    __slots__ = ("state", "read_mask", "write_mask", "region")

    def __init__(self, state: int):
        self.state = state
        self.read_mask = 0
        self.write_mask = 0
        self.region = -1


class DirEntry:
    """Full-map directory entry: one exclusive owner or a sharer bitmask.

    Invariant: ``owner != -1`` implies ``sharers == 0`` (E/M is
    exclusive); S copies are tracked in ``sharers``.
    """

    __slots__ = ("owner", "sharers")

    def __init__(self):
        self.owner = -1
        self.sharers = 0

    def sharer_list(self) -> list[int]:
        """Sharing cores, ascending (one step per sharer, not per bit)."""
        out = []
        bits = self.sharers
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out


class CoherenceProtocol(ABC):
    """Base class for the four simulated systems."""

    #: subclasses set this for reporting
    name = "abstract"

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.cfg = machine.cfg
        self.stats = machine.stats
        # Per-access constants, cached as plain attributes (the config's
        # line_size is a property and the nested configs cost a lookup).
        self.line_size = machine.line_size
        self.line_mask = ~(machine.line_size - 1)
        self.l1_hit_latency = self.cfg.l1.hit_latency
        self.llc_hit_latency = machine.llc_hit_latency
        self.bank_shift = machine.bank_shift
        self.bank_mask = machine.bank_mask
        n = self.cfg.num_cores
        self.region = [0] * n
        self.region_start = [0] * n
        # Cores actually running threads; idle cores never begin regions,
        # so bookkeeping that reasons about "oldest running region"
        # (ARC's interval reclamation) must ignore them.  The simulator
        # sets this to the program's thread count.
        self.active_cores = n
        if getattr(machine, "sanitize", False):
            # Deferred import: the sanitizer lives in repro.modelcheck,
            # which imports the protocol classes.
            from ..modelcheck.sanitize import arm_protocol

            arm_protocol(self)

    # -- simulator-facing API ---------------------------------------------------

    @abstractmethod
    def access(
        self, core: int, addr: int, size: int, is_write: bool, cycle: int
    ) -> int:
        """Perform one data access; returns its latency in cycles."""

    def region_boundary(self, core: int, cycle: int, kind: int) -> int:
        """End the core's current region and begin the next.

        Subclasses override to do boundary work, then call ``super()``
        (which advances the region index) *after* any work that must see
        the old region as still current.
        """
        self.stats.region_boundaries += 1
        self.region[core] += 1
        self.region_start[core] = cycle
        return 0

    def rebase_region_start(self, core: int, cycle: int) -> None:
        """Move the current region's start time forward.

        Called by the simulator when a core was parked between ending one
        region and actually starting the next — e.g. waiting at a
        barrier: the new region begins at the *departure*, and recording
        the arrival instead would make it spuriously overlap regions
        other cores finished while this core waited.
        """
        self.region_start[core] = cycle

    def finalize(self, cycle: int) -> None:
        """Called once when the program drains; default does nothing."""

    def _evict_handler(self, core: int) -> Callable[[int, Any], None]:
        """``on_evict`` callback for ``core``'s private hierarchy.

        Evictions reach ``self._evict(core, line, payload, self._now)``,
        ``_now`` being the cycle of the access that displaced the line.
        The callback holds the protocol weakly: a strong reference would
        make every protocol a reference cycle, so each finished
        simulation's caches would wait for the cyclic collector instead
        of being freed when the simulation is dropped.
        """
        owner: Any = weakref.proxy(self)  # _evict/_now live on subclasses
        return lambda line, payload: owner._evict(core, line, payload, owner._now)

    # -- model-checker state fingerprint ------------------------------------------

    def snapshot(self) -> tuple:
        """A hashable fingerprint of the protocol's semantic state.

        The model checker memoizes exploration on these: two
        interleavings reaching equal snapshots are merged.  Subclasses
        extend the tuple with their own structures and must (a) include
        everything that can influence future behavior — including cache
        *ordering*, since LRU decides victims — and (b) canonicalize
        away state that cannot, e.g. access masks whose region already
        ended (semantically flash-cleared).
        """
        return (tuple(self.region),)

    # -- conflict reporting -------------------------------------------------------

    def report_conflict(
        self,
        *,
        cycle: int,
        line_addr: int,
        byte_mask: int,
        first_core: int,
        first_region: int,
        first_was_write: bool,
        second_core: int,
        second_was_write: bool,
        detected_by: str,
    ) -> None:
        """Record a region conflict (raising if configured to halt)."""
        if first_core == second_core:
            raise SimulationError("a region cannot conflict with itself")
        record = ConflictRecord(
            cycle=cycle,
            line_addr=line_addr,
            byte_mask=byte_mask,
            first_core=first_core,
            second_core=second_core,
            first_region=first_region,
            second_region=self.region[second_core],
            first_was_write=first_was_write,
            second_was_write=second_was_write,
            detected_by=detected_by,
        )
        if self.stats.record_conflict(record) and self.cfg.halt_on_conflict:
            raise RegionConflictError(record)
