"""Conflict Exceptions (CE) — MESI plus region conflict detection.

Following Lucia et al. (ISCA 2010), every L1 line carries the owning
core's byte-level read/write access bits for its *current* region.  CE
detects conflicts **eagerly**, at the coherence action that would make a
conflicting access visible:

* an invalidation checks the victim sharer's read bits against the
  remote write;
* a forward/downgrade checks the exclusive owner's bits against the
  remote access;
* a miss or upgrade checks, at the home bank, the **spilled** metadata
  of lines other cores evicted mid-region.

The spill machinery is CE's defining cost.  When a line with live access
bits leaves an L1 (capacity eviction *or* invalidation), its bits are
written to metadata storage — for plain CE that storage is **main
memory**, so every spill, every miss-time check against spilled
metadata, every region-end clear is an off-chip metadata transfer of
``metadata_bytes``.  In-cache access bits, by contrast, clear for free
at region end (flash clear, modeled by the region tag).

Coherence actions alone are *not* sufficient: once a core holds a line
with write permission (or an S copy after a downgrade), later accesses
in *new* local regions are silent hits with no coherence action, yet
can conflict with a remote region that is still open.  CE's cache
lines therefore also carry **remote** access bits summarizing other
cores' live accesses, checked locally on every access — free, since no
message leaves the core (``_remote_bits_check``).  The bounded model
checker (``repro.modelcheck``) found the concrete misses that motivate
this; docs/MODELCHECK.md walks through them.
"""

from __future__ import annotations

from .base import MesiLine
from .mesi import MesiProtocol
from .metadata import AccessInfoTable
from ..noc.messages import META


class CeProtocol(MesiProtocol):
    """CE: conflict detection with metadata spills to main memory."""

    name = "ce"

    def __init__(self, machine):
        super().__init__(machine)
        self.meta_table = AccessInfoTable()
        # Per core: lines whose metadata this core spilled during its
        # current region (cleared, at a cost, at region end).
        self.spill_log: list[set[int]] = [set() for _ in range(self.cfg.num_cores)]

    # -- metadata storage costs (CE+: overridden to go through the AIM) ----------

    def _meta_store_read(self, bank: int, line: int, cycle: int) -> int:
        """Read one line's spilled metadata at the home bank."""
        return self.machine.dram.access(
            cycle, self.cfg.metadata_bytes, write=False, metadata=True
        )

    def _meta_store_write(self, bank: int, line: int, cycle: int) -> int:
        """Write (spill, update or clear) one line's spilled metadata."""
        return self.machine.dram.access(
            cycle, self.cfg.metadata_bytes, write=True, metadata=True
        )

    # -- MESI extension points ------------------------------------------------------

    def _on_local_access(
        self, core: int, line: int, payload: MesiLine, mask: int, is_write: bool, cycle: int
    ) -> None:
        region = self.region[core]
        if payload.region != region:
            payload.read_mask = 0
            payload.write_mask = 0
            payload.region = region
        if is_write:
            payload.write_mask |= mask
        else:
            payload.read_mask |= mask
        self.stats.metadata_checks += 1
        self._remote_bits_check(core, line, mask, is_write, cycle)

    def _remote_bits_check(
        self, core: int, line: int, mask: int, is_write: bool, cycle: int
    ) -> None:
        """In-cache *remote* access bits (ISCA 2010).

        Every CE line also summarizes other cores' still-live accesses,
        kept current by the home on fills, downgrades and spills, so
        even a *silent* hit (E/M, or a read in S) in a new local region
        detects a conflict against a remote region that is still open.
        The consult is local — no message, no added latency, no
        metadata traffic — modeled as a free check of (a) live bits
        other holders carry in their L1s (an M→S downgrade leaves the
        writer's bits live in S) and (b) live spilled metadata.
        Without it CE misses exactly the hit-after-own-boundary pairs
        the model checker's oracle cross-check flags (see
        docs/MODELCHECK.md).
        """
        entry = self.directory.get(line)
        spilled = self.meta_table.get_line(line)
        if spilled is None and (
            entry is None
            or (entry.owner in (-1, core) and not (entry.sharers & ~(1 << core)))
        ):
            return  # nobody else holds or has spilled the line
        if entry is not None:
            holders = entry.sharer_list()
            if entry.owner != -1:
                holders.append(entry.owner)
            region_of = self.region
            l1 = self.l1
            for other in holders:
                if other == core:
                    continue
                remote = l1[other].peek(line)
                if remote is None or remote.region != region_of[other]:
                    continue
                if is_write:
                    overlap = mask & (remote.read_mask | remote.write_mask)
                    first_was_write = bool(mask & remote.write_mask)
                else:
                    overlap = mask & remote.write_mask
                    first_was_write = True
                if overlap:
                    self.report_conflict(
                        cycle=cycle,
                        line_addr=line,
                        byte_mask=overlap,
                        first_core=other,
                        first_region=remote.region,
                        first_was_write=first_was_write,
                        second_core=core,
                        second_was_write=is_write,
                        detected_by="remote-bits",
                    )
        if spilled is None:
            return
        for other, meta in self.meta_table.live_others(line, core, self.region):
            overlap = meta.conflicts_with(mask, is_write)
            if overlap:
                self.report_conflict(
                    cycle=cycle,
                    line_addr=line,
                    byte_mask=overlap,
                    first_core=other,
                    first_region=meta.region,
                    first_was_write=bool(mask & meta.write_mask) if is_write else True,
                    second_core=core,
                    second_was_write=is_write,
                    detected_by="remote-bits",
                )

    def _check_remote(
        self,
        holder: int,
        payload: MesiLine,
        line: int,
        req_core: int,
        mask: int,
        req_is_write: bool,
        cycle: int,
        via: str,
    ) -> None:
        if payload.region != self.region[holder]:
            return  # bits belong to an already-ended region
        self.stats.metadata_checks += 1
        if req_is_write:
            overlap = mask & (payload.read_mask | payload.write_mask)
            first_was_write = bool(mask & payload.write_mask)
        else:
            overlap = mask & payload.write_mask
            first_was_write = True
        if overlap:
            self.report_conflict(
                cycle=cycle,
                line_addr=line,
                byte_mask=overlap,
                first_core=holder,
                first_region=payload.region,
                first_was_write=first_was_write,
                second_core=req_core,
                second_was_write=req_is_write,
                detected_by=via,
            )

    def _home_metadata_check(
        self, core: int, line: int, mask: int, is_write: bool, cycle: int, bank: int
    ) -> tuple[int, tuple[int, int] | None]:
        latency = 0
        fill: tuple[int, int] | None = None

        # Re-fill the requester's own spilled bits into the incoming line.
        own = None
        per_line = self.meta_table.get_line(line)
        if per_line is not None:
            own = per_line.get(core)
        if own is not None and own.region == self.region[core]:
            latency += self._meta_store_read(bank, line, cycle)
            self.stats.metadata_fills += 1
            fill = (own.read_mask, own.write_mask)
            self.machine.net.send(bank, core, self.cfg.metadata_bytes, META, cycle)
            self.meta_table.remove(line, core)
            self.spill_log[core].discard(line)

        # Check against every other core's live spilled metadata.
        for other, entry in self.meta_table.live_others(line, core, self.region):
            latency += self._meta_store_read(bank, line, cycle)
            self.stats.metadata_checks += 1
            overlap = entry.conflicts_with(mask, is_write)
            if overlap:
                self.report_conflict(
                    cycle=cycle,
                    line_addr=line,
                    byte_mask=overlap,
                    first_core=other,
                    first_region=entry.region,
                    first_was_write=bool(mask & entry.write_mask) if is_write else True,
                    second_core=core,
                    second_was_write=is_write,
                    detected_by="meta-check",
                )
        return latency, fill

    def _on_line_removed(self, core: int, line: int, payload: MesiLine, cycle: int) -> None:
        if payload.region != self.region[core]:
            return
        if not (payload.read_mask | payload.write_mask):
            return
        # Live access bits leave the cache: spill them to metadata storage.
        self.stats.metadata_spills += 1
        home = (line >> self.bank_shift) & self.bank_mask
        self.machine.net.send(core, home, self.cfg.metadata_bytes, META, cycle)
        self._meta_store_write(home, line, cycle)  # off the critical path
        self.meta_table.upsert(
            line, core, payload.read_mask, payload.write_mask, payload.region
        )
        self.spill_log[core].add(line)

    # -- region boundaries -------------------------------------------------------------

    def region_boundary(self, core: int, cycle: int, kind: int) -> int:
        latency = self._clear_spilled(core, cycle)
        latency += super().region_boundary(core, cycle, kind)
        return latency

    def _clear_spilled(self, core: int, cycle: int) -> int:
        """Clear this core's spilled metadata at region end.

        In-cache bits flash-clear for free; spilled entries must be
        explicitly invalidated in metadata storage.  Clears to distinct
        lines pipeline; the boundary stalls for the slowest one plus an
        issue slot per extra message.
        """
        log = self.spill_log[core]
        if not log:
            return 0
        net = self.machine.net
        worst = 0
        count = 0
        for line in sorted(log):  # deterministic clear order
            if self.meta_table.remove(line, core) is None:
                continue  # already reclaimed (e.g. re-filled then re-spilled race)
            count += 1
            self.stats.metadata_clears += 1
            home = self.machine.home_bank(line)
            msg_lat = net.send(core, home, 0, META, cycle)
            store_lat = self._meta_store_write(home, line, cycle)
            worst = max(worst, msg_lat + store_lat)
        log.clear()
        if count == 0:
            return 0
        return worst + 2 * (count - 1)

    # -- model-checker fingerprint --------------------------------------------------

    def snapshot(self) -> tuple:
        # Dead (region-ended) spilled entries are semantically cleared;
        # drop them so lazily-reclaimed and reclaimed states merge.
        live_meta = tuple(sorted(
            (line, core, entry.read_mask, entry.write_mask)
            for line, core, entry in self.meta_table.items()
            if entry.region == self.region[core]
        ))
        logs = tuple(tuple(sorted(log)) for log in self.spill_log)
        return super().snapshot() + (live_meta, logs)
