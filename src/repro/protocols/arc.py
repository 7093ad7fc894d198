"""ARC — region conflict detection on self-invalidation coherence.

The paper's second design rethinks the substrate: instead of MESI's
eager write-invalidation, ARC runs release-consistency coherence in the
DeNovo/VIPS style.  There are **no sharer lists, no invalidation or
forward messages**:

* L1s are write-back; data is classified *private* (one accessor) or
  *shared* at the home bank, at line granularity.
* At every region boundary a core **self-downgrades**: it flushes its
  dirty *shared* lines to the LLC (data the next acquirer must see).
* At an acquire (or barrier) it **self-invalidates**: it drops all
  shared lines from its L1, so post-boundary reads re-fetch current
  data from the LLC.  Both are local flash operations plus pipelined
  writebacks — no round trips to other cores, ever.

Conflict detection moves to the home banks, which keep byte-level
access-information tables (the same masks CE keeps in L1s).

Registration is **lazy**: an L1 miss piggybacks the access's byte masks
on the request it already sends; hits merely accumulate masks locally.
The accumulated *delta* reaches the bank at the latest of: the line's
eviction, a private->shared recovery, or the region's end — where dirty
shared lines piggyback the delta on their self-downgrade writeback and
clean lines pay one small message per line.  So per line per region ARC
sends at most one standalone metadata message, usually none.

Lazy registration means a conflict may only become *visible* when the
second region ends.  For that check to be sound the bank cannot discard
a region's masks the moment the region ends (another still-running
region may yet flush a conflicting delta).  The bank therefore keeps
**region intervals**: each core's region end times are recorded at its
boundaries, an entry of an ended region stays live for a flusher whose
region *started before that end*, and entries are reclaimed once no
running region overlaps them (their end precedes the oldest running
region's start).  This is the bank-side interval bookkeeping the paper
sketches for ARC's deregistration; conflicts are detected at the access
for misses and no later than the end of the second conflicting region
otherwise — before the region's effects become visible, preserving
region-serializable exception semantics.
"""

from __future__ import annotations

from ..common.bitops import byte_mask
from ..mem.hierarchy import PrivateHierarchy
from ..noc.messages import DATA, FWD, META, REGION, REQ
from ..trace.events import ACQUIRE, BARRIER
from .base import CoherenceProtocol

#: owner_table value marking a line touched by two or more cores
SHARED = -2

#: payload bytes of a registration message (one compressed mask pair)
_REG_PAYLOAD = 8

#: payload bytes of a write-through store (one word + piggybacked masks)
_WT_PAYLOAD = 16


class ArcLine:
    """Payload of one L1 line under ARC.

    ``read_mask``/``write_mask`` accumulate the bytes this core accessed
    in region ``region``; ``reg_read_mask``/``reg_write_mask`` are the
    subsets already registered at the home bank.  All four are stale
    whenever ``region`` is not the core's current region.
    """

    __slots__ = (
        "dirty",
        "shared",
        "read_mask",
        "write_mask",
        "reg_read_mask",
        "reg_write_mask",
        "region",
    )

    def __init__(self, *, shared: bool):
        self.dirty = False
        self.shared = shared
        self.read_mask = 0
        self.write_mask = 0
        self.reg_read_mask = 0
        self.reg_write_mask = 0
        self.region = -1

    def refresh(self, region: int) -> None:
        if self.region != region:
            self.read_mask = 0
            self.write_mask = 0
            self.reg_read_mask = 0
            self.reg_write_mask = 0
            self.region = region

    def unregistered_delta(self) -> tuple[int, int]:
        return (
            self.read_mask & ~self.reg_read_mask,
            self.write_mask & ~self.reg_write_mask,
        )


class ArcEntry:
    """One registered (line, core, region) record at a bank."""

    __slots__ = ("read_mask", "write_mask", "region")

    def __init__(self, read_mask: int, write_mask: int, region: int):
        self.read_mask = read_mask
        self.write_mask = write_mask
        self.region = region


class ArcProtocol(CoherenceProtocol):
    """ARC: self-invalidation coherence + LLC-resident conflict detection."""

    name = "arc"

    def __init__(self, machine):
        super().__init__(machine)
        n = self.cfg.num_cores
        self.write_through = self.cfg.arc_write_through
        # Each entry is the core's private hierarchy (L1 + optional L2);
        # outward evictions arrive via callback at `self._now`.
        self._now = 0
        self.l1 = [
            PrivateHierarchy(
                self.cfg.l1,
                self.cfg.l2,
                on_evict=self._evict_handler(core),
            )
            for core in range(n)
        ]
        # line -> owning core, or SHARED once a second core touches it.
        self.owner_table: dict[int, int] = {}
        # Bank-side access info: line -> core -> entries (newest last).
        # A single map keyed by line is equivalent to per-bank tables,
        # since every line hashes to exactly one home bank.
        self.access_info: dict[int, dict[int, list[ArcEntry]]] = {}
        # Per core: end cycle of each *retained* ended region.
        self.region_ends: list[dict[int, int]] = [dict() for _ in range(n)]
        # Per core: dirty *shared* lines to flush at the next boundary.
        self.dirty_shared: list[set[int]] = [set() for _ in range(n)]
        # Per core: shared lines with locally accumulated, unregistered
        # mask bytes (delta flushed at region end).
        self.pending_delta: list[set[int]] = [set() for _ in range(n)]
        # Per core: banks holding registrations for the current region
        # (only tracked for the explicit-clear ablation).
        self._touched_banks: list[set[int]] = [set() for _ in range(n)]
        # Start cycle of the oldest running region among active cores;
        # bank entries whose region ended at or before this can never
        # overlap a future flush and are reclaimed.
        self._horizon = 0

    # -- the access path --------------------------------------------------------

    def access(self, core: int, addr: int, size: int, is_write: bool, cycle: int) -> int:
        line = addr & self.line_mask
        offset = addr - line
        if 0 < size and offset + size <= self.line_size:
            mask = ((1 << size) - 1) << offset
        else:
            mask = byte_mask(offset, size, self.line_size)  # raises
        stats = self.stats
        stats.accesses += 1
        if is_write:
            stats.writes += 1

        self._now = cycle
        cache = self.l1[core]
        payload, extra, from_l2 = cache.lookup(line)
        latency = self.l1_hit_latency + extra

        if payload is not None:
            if from_l2:
                stats.l2_hits += 1
            else:
                stats.l1_hits += 1
            self._note_access(core, line, payload, mask, is_write)
            if is_write:
                if payload.shared and self.write_through:
                    latency += self._write_through_store(
                        core, line, payload, mask, cycle
                    )
                else:
                    payload.dirty = True
                    if payload.shared:
                        self.dirty_shared[core].add(line)
            return latency

        stats.l1_misses += 1
        shared, recovery_latency = self._classify(core, line, cycle)
        latency += recovery_latency

        home = (line >> self.bank_shift) & self.bank_mask
        net = self.machine.net
        # The miss request piggybacks the access's registration masks.
        latency += net.send(core, home, _REG_PAYLOAD if shared else 0, REQ, cycle)
        latency += self.machine.llc_data_access(home, line, cycle, make_dirty=False)
        if shared:
            latency += self._register(
                core, line,
                0 if is_write else mask,
                mask if is_write else 0,
                cycle, "llc-register",
            )
        latency += net.send(home, core, self.line_size, DATA, cycle)

        new_payload = ArcLine(shared=shared)
        new_payload.region = self.region[core]
        if is_write:
            new_payload.write_mask = mask
            if shared:
                new_payload.reg_write_mask = mask
                if self.write_through:
                    # the store completes as a write-through to the LLC
                    # (masks were already registered via the request)
                    self.stats.arc_write_throughs += 1
                    net.send(core, home, _WT_PAYLOAD, DATA, cycle)
                    self.machine.llc_writeback(home, line, cycle)
                else:
                    new_payload.dirty = True
                    self.dirty_shared[core].add(line)
            else:
                new_payload.dirty = True
        else:
            new_payload.read_mask = mask
            if shared:
                new_payload.reg_read_mask = mask
        cache.insert(line, new_payload)  # outward evictions via callback
        return latency

    def _note_access(
        self, core: int, line: int, payload: ArcLine, mask: int, is_write: bool
    ) -> None:
        """Accumulate masks on an L1 hit (registration is lazy)."""
        payload.refresh(self.region[core])
        if is_write:
            payload.write_mask |= mask
        else:
            payload.read_mask |= mask
        if payload.shared and payload.unregistered_delta() != (0, 0):
            self.pending_delta[core].add(line)

    def _write_through_store(
        self, core: int, line: int, payload: ArcLine, mask: int, cycle: int
    ) -> int:
        """VIPS-style ablation: a shared-line store writes through to the
        LLC immediately, carrying its access masks.  Fire-and-forget (one
        issue cycle); the line never becomes dirty in the L1, so region
        boundaries have nothing to flush."""
        home = self.machine.home_bank(line)
        self.stats.arc_write_throughs += 1
        self.machine.net.send(core, home, _WT_PAYLOAD, DATA, cycle)
        self.machine.llc_writeback(home, line, cycle)
        new_bytes = mask & ~payload.reg_write_mask
        if new_bytes:
            self._register(core, line, 0, new_bytes, cycle, "write-through")
            payload.reg_write_mask |= new_bytes
        if payload.unregistered_delta() == (0, 0):
            self.pending_delta[core].discard(line)
        return 1

    # -- classification ------------------------------------------------------------

    def _classify(self, core: int, line: int, cycle: int) -> tuple[bool, int]:
        """Classify the missing line; returns (is_shared, recovery latency).

        A private->shared transition recovers the previous owner's state:
        its dirty copy is flushed to the LLC and its live locally-held
        masks are uploaded to the bank table (that is the first moment a
        conflict on this line is possible).
        """
        owner = self.owner_table.get(line)
        if owner is None:
            self.owner_table[line] = core
            return False, 0
        if owner == SHARED:
            return True, 0
        if owner == core:
            return False, 0

        # Transition: `owner` loses private status.
        self.owner_table[line] = SHARED
        self.stats.classification_recoveries += 1
        machine = self.machine
        home = machine.home_bank(line)
        latency = 0
        prev = self.l1[owner].peek(line)
        if prev is not None:
            prev.shared = True
            latency += machine.net.send(home, owner, 0, FWD, cycle)
            latency += self.l1_hit_latency
            if prev.dirty:
                self.stats.self_downgrades += 1
                latency += machine.send_data(owner, home, cycle)
                machine.llc_writeback(home, line, cycle)
                prev.dirty = False
            if prev.region == self.region[owner] and (
                prev.read_mask | prev.write_mask
            ):
                machine.net.send(owner, home, _REG_PAYLOAD, META, cycle)
                latency += self._register(
                    owner, line, prev.read_mask, prev.write_mask, cycle, "recovery"
                )
                prev.reg_read_mask = prev.read_mask
                prev.reg_write_mask = prev.write_mask
        return True, latency

    # -- bank-side registration & conflict checks ---------------------------------------

    def _entry_overlaps(self, other: int, entry: ArcEntry, flusher_start: int) -> bool | None:
        """Does ``entry``'s region overlap a region that started at
        ``flusher_start`` and is still running?

        Returns None when the entry is dead (reclaimable): its region
        ended before every running region started.
        """
        if entry.region == self.region[other]:
            return True  # still running: overlaps anything running now
        end = self.region_ends[other].get(entry.region)
        if end is None:
            return None  # end already pruned => long dead
        if end <= self._horizon:
            return None
        return end > flusher_start

    def _register(
        self, core: int, line: int, read_mask: int, write_mask: int, cycle: int, via: str
    ) -> int:
        """Merge masks into the bank table and check overlapping regions."""
        self.stats.arc_registrations += 1
        if not self.cfg.arc_lazy_clear:
            self._touched_banks[core].add(self.machine.home_bank(line))

        my_start = self.region_start[core]
        my_region = self.region[core]
        per_line = self.access_info.setdefault(line, {})
        horizon = self._horizon
        region_of = self.region
        region_ends = self.region_ends

        for other, entries in list(per_line.items()):
            if other == core:
                continue
            kept: list[ArcEntry] = []
            dropped = False
            current_other = region_of[other]
            ends_other = region_ends[other]
            for entry in entries:
                # inline _entry_overlaps (this loop dominates ARC's cost)
                if entry.region == current_other:
                    overlaps = True
                else:
                    end = ends_other.get(entry.region)
                    if end is None or end <= horizon:
                        dropped = True
                        continue  # reclaim dead entry
                    overlaps = end > my_start
                kept.append(entry)
                if not overlaps:
                    continue
                overlap_w = write_mask & (entry.read_mask | entry.write_mask)
                if overlap_w:
                    self.report_conflict(
                        cycle=cycle,
                        line_addr=line,
                        byte_mask=overlap_w,
                        first_core=other,
                        first_region=entry.region,
                        first_was_write=bool(overlap_w & entry.write_mask),
                        second_core=core,
                        second_was_write=True,
                        detected_by=via,
                    )
                overlap_r = read_mask & entry.write_mask
                if overlap_r:
                    self.report_conflict(
                        cycle=cycle,
                        line_addr=line,
                        byte_mask=overlap_r,
                        first_core=other,
                        first_region=entry.region,
                        first_was_write=True,
                        second_core=core,
                        second_was_write=False,
                        detected_by=via,
                    )
            if not dropped:
                continue
            if kept:
                per_line[other] = kept
            else:
                del per_line[other]

        own = per_line.get(core)
        if own is None:
            per_line[core] = [ArcEntry(read_mask, write_mask, my_region)]
        else:
            # Reclaim own dead entries on the way.
            own = [
                e for e in own if self._entry_overlaps(core, e, my_start) is not None
            ]
            if own and own[-1].region == my_region:
                own[-1].read_mask |= read_mask
                own[-1].write_mask |= write_mask
            else:
                own.append(ArcEntry(read_mask, write_mask, my_region))
            per_line[core] = own
        return self.cfg.aim.latency

    # -- evictions -----------------------------------------------------------------------

    def _evict(self, core: int, line: int, payload: ArcLine, cycle: int) -> None:
        machine = self.machine
        self.stats.l1_evictions += 1
        home = (line >> self.bank_shift) & self.bank_mask
        if payload.dirty:
            self.stats.l1_writebacks += 1
            machine.send_data(core, home, cycle)
            machine.llc_writeback(home, line, cycle)
            self.dirty_shared[core].discard(line)
        if payload.region == self.region[core]:
            delta_r, delta_w = payload.unregistered_delta()
            if payload.shared:
                # Unregistered bytes must reach the bank before the local
                # copy (and its masks) disappears; piggyback on the dirty
                # writeback when there is one.
                if delta_r | delta_w:
                    if not payload.dirty:
                        machine.net.send(core, home, _REG_PAYLOAD, META, cycle)
                    self._register(core, line, delta_r, delta_w, cycle, "evict-upload")
                self.pending_delta[core].discard(line)
            elif payload.read_mask | payload.write_mask:
                # A private line's masks only live in the L1; preserve them
                # at the bank so a later private->shared transition still
                # sees them.
                machine.net.send(core, home, _REG_PAYLOAD, META, cycle)
                self._register(
                    core, line, payload.read_mask, payload.write_mask, cycle,
                    "evict-upload",
                )

    # -- region boundaries ------------------------------------------------------------------

    def region_boundary(self, core: int, cycle: int, kind: int) -> int:
        latency = self._flush_deltas(core, cycle)
        latency += self._flush_dirty_shared(core, cycle)
        if not self.cfg.arc_lazy_clear:
            latency += self._explicit_clear(core, cycle)
        self._record_region_end(core, cycle)
        latency += super().region_boundary(core, cycle, kind)
        self._horizon = min(self.region_start[: self.active_cores])
        if kind in (ACQUIRE, BARRIER):
            latency += self._self_invalidate(core)
        return latency

    def rebase_region_start(self, core: int, cycle: int) -> None:
        super().rebase_region_start(core, cycle)
        self._horizon = min(self.region_start[: self.active_cores])

    def finalize(self, cycle: int) -> None:
        """Flush every core's outstanding deltas at program exit so
        conflicts completed by still-open final regions are reported."""
        for core in range(self.cfg.num_cores):
            self._flush_deltas(core, cycle)

    def _record_region_end(self, core: int, cycle: int) -> None:
        """Remember when the ending region finished; prune dead records."""
        ends = self.region_ends[core]
        ends[self.region[core]] = cycle
        if len(ends) > 16:
            for region in [r for r, end in ends.items() if end <= self._horizon]:
                del ends[region]

    def _flush_deltas(self, core: int, cycle: int) -> int:
        """Send unregistered mask deltas to the banks at region end.

        Deltas of dirty shared lines piggyback on the self-downgrade
        writeback (no extra message); clean lines cost one small message
        each.  All of them perform a bank-table check-and-merge.
        """
        lines = self.pending_delta[core]
        if not lines:
            return 0
        machine = self.machine
        worst = 0
        count = 0
        for line in sorted(lines):  # deterministic flush order
            payload = self.l1[core].peek(line)
            if payload is None or payload.region != self.region[core]:
                continue
            delta_r, delta_w = payload.unregistered_delta()
            if not (delta_r | delta_w):
                continue
            count += 1
            home = machine.home_bank(line)
            lat = 0
            if line not in self.dirty_shared[core]:
                lat = machine.net.send(core, home, _REG_PAYLOAD, META, cycle)
            lat += self._register(core, line, delta_r, delta_w, cycle, "region-end-flush")
            payload.reg_read_mask |= delta_r
            payload.reg_write_mask |= delta_w
            worst = max(worst, lat)
        lines.clear()
        if count == 0:
            return 0
        return worst + (count - 1)

    def _flush_dirty_shared(self, core: int, cycle: int) -> int:
        """Self-downgrade: push dirty shared lines to the LLC.

        Writebacks pipeline; the boundary stalls for the slowest one plus
        an issue slot per extra line.
        """
        lines = self.dirty_shared[core]
        if not lines:
            return 0
        machine = self.machine
        worst = 0
        count = 0
        for line in sorted(lines):  # deterministic writeback order
            payload = self.l1[core].peek(line)
            if payload is None or not payload.dirty:
                continue
            count += 1
            self.stats.self_downgrades += 1
            home = machine.home_bank(line)
            lat = machine.send_data(core, home, cycle)
            machine.llc_writeback(home, line, cycle)
            payload.dirty = False
            worst = max(worst, lat)
        lines.clear()
        if count == 0:
            return 0
        return worst + 2 * (count - 1)

    def _explicit_clear(self, core: int, cycle: int) -> int:
        """Ablation: send one clear message per bank holding registrations
        (the lazy epoch/interval scheme makes these messages unnecessary)."""
        banks = self._touched_banks[core]
        if not banks:
            return 0
        net = self.machine.net
        worst = 0
        for bank in sorted(banks):  # deterministic message order
            self.stats.arc_clear_messages += 1
            worst = max(worst, net.send(core, bank, 0, REGION, cycle))
        count = len(banks)
        banks.clear()
        return worst + (count - 1)

    def _self_invalidate(self, core: int) -> int:
        """Drop all shared lines (flash operation; dirty ones were just
        flushed by the boundary's self-downgrade)."""
        dropped = self.l1[core].invalidate_where(lambda _addr, p: p.shared)
        self.stats.self_invalidated_lines += len(dropped)
        return self.l1_hit_latency

    # -- model-checker fingerprint ------------------------------------------------

    def snapshot(self) -> tuple:
        caches = []
        for core in range(self.cfg.num_cores):
            region = self.region[core]
            per_core = []
            for line, p in self.l1[core].items():  # LRU order is behavior
                live = p.region == region
                per_core.append((
                    line,
                    p.dirty,
                    p.shared,
                    # masks of an ended region are stale by construction
                    p.read_mask if live else 0,
                    p.write_mask if live else 0,
                    p.reg_read_mask if live else 0,
                    p.reg_write_mask if live else 0,
                ))
            caches.append(tuple(per_core))
        # Per (line, core) the entry list's *order* is behavior (the
        # newest entry is the merge target), so keep it; sort across keys.
        table = tuple(sorted(
            (
                line,
                core,
                tuple((e.read_mask, e.write_mask, e.region) for e in entries),
            )
            for line, per_line in self.access_info.items()
            for core, entries in per_line.items()
        ))
        return super().snapshot() + (
            tuple(caches),
            tuple(sorted(self.owner_table.items())),
            table,
            # Interval bookkeeping carries cycle stamps: path-dependent,
            # so ARC fingerprints merge less than the MESI family's.
            tuple(tuple(sorted(ends.items())) for ends in self.region_ends),
            tuple(self.region_start),
            self._horizon,
            tuple(tuple(sorted(s)) for s in self.dirty_shared),
            tuple(tuple(sorted(s)) for s in self.pending_delta),
            tuple(tuple(sorted(s)) for s in self._touched_banks),
        )
