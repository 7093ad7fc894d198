"""Directory-based MESI coherence — the baseline every figure normalizes to.

Geometry: private L1 per core; shared LLC banked by line address, with a
full-map directory slice at each home bank.  The protocol is
transaction-at-a-time (the simulator serializes each core's accesses),
so transient states never arise; what is modeled is the *work* of each
transaction — messages, cache/DRAM accesses — and the latency of its
critical path:

* read hit / write hit in E or M: L1 latency.
* write hit in S: upgrade — request to home, invalidations to all other
  sharers, acks back to the requester (latency: the slowest round trip).
* read miss: request to home; data from the LLC (fetching from DRAM on
  an LLC miss) or, if a remote L1 owns the line in E/M, a forward to the
  owner which downgrades to S and supplies data (writing the line back
  to the LLC off the critical path).
* write miss: request to home; invalidations to sharers and/or a forward
  to the exclusive owner, which surrenders ownership and supplies data.

``use_owned_state=True`` switches the baseline to **MOESI**: a read from
a modified owner downgrades it to O (it keeps the dirty data and keeps
supplying readers, with no LLC writeback); a write to an O line behaves
like an upgrade and also invalidates the owner when a *sharer* upgrades.

Modeling shortcut (documented): clean L1 evictions update the directory
directly without a message.  Real MESI lets the directory go stale and
pays occasional spurious invalidations instead; the traffic difference
is negligible and a precise directory keeps every transaction's sharer
set exact, which CE's conflict checks rely on.

The CE subclass hooks the four marked extension points; in this class
they are no-ops, making this file the pure baseline.
"""

from __future__ import annotations

from ..common.bitops import byte_mask
from ..mem.cache import SetAssocCache
from ..mem.hierarchy import PrivateHierarchy
from ..noc.messages import DATA, FWD, INV, REQ
from .base import DIRTY_STATES, E, M, O, S, CoherenceProtocol, DirEntry, MesiLine


class MesiProtocol(CoherenceProtocol):
    """Baseline MESI; also the chassis CE and CE+ extend."""

    name = "mesi"

    def __init__(self, machine):
        super().__init__(machine)
        cfg = self.cfg
        # Each entry is the core's whole private hierarchy (L1, plus the
        # optional exclusive L2); the attribute keeps its historical name.
        # Outward evictions arrive via callback at `self._now`, the cycle
        # of the access that displaced them.
        self._now = 0
        self.l1 = [
            PrivateHierarchy(
                cfg.l1,
                cfg.l2,
                on_evict=self._evict_handler(core),
            )
            for core in range(cfg.num_cores)
        ]
        self.directory: dict[int, DirEntry] = {}
        # Optional bounded directory: one set-associative entry store per
        # bank; allocation pressure recalls (invalidates) victim lines.
        if cfg.directory_entries_per_bank is not None:
            entries = cfg.directory_entries_per_bank
            assoc = min(8, entries)
            self.dir_store = [
                SetAssocCache(entries // assoc, assoc, cfg.line_size)
                for _ in range(cfg.num_banks)
            ]
        else:
            self.dir_store = None

    def _dir(self, line_addr: int) -> DirEntry:
        if self.dir_store is None:
            entry = self.directory.get(line_addr)
            if entry is None:
                entry = DirEntry()
                self.directory[line_addr] = entry
            return entry
        store = self.dir_store[self.machine.home_bank(line_addr)]
        entry = store.get(line_addr)
        if entry is None:
            entry = DirEntry()
            victim = store.insert(line_addr, entry)
            if victim is not None:
                self._recall(victim[0], victim[1], self._now)
            self.directory[line_addr] = entry
        return entry

    def _recall(self, line: int, entry: DirEntry, cycle: int) -> None:
        """A sparse-directory eviction: invalidate every cached copy of
        the victim line (off the critical path; traffic is counted and
        live CE access bits spill via the removal hook)."""
        machine = self.machine
        self.stats.directory_recalls += 1
        home = machine.home_bank(line)
        targets = entry.sharer_list()
        if entry.owner != -1:
            targets.append(entry.owner)
        for core in targets:
            self.stats.invalidations_sent += 1
            machine.net.send(home, core, 0, INV, cycle)
            payload = self.l1[core].peek(line)
            if payload is not None:
                if payload.state in DIRTY_STATES:
                    machine.send_data(core, home, cycle)
                    machine.llc_writeback(home, line, cycle)
                self.l1[core].invalidate(line)
                self._on_line_removed(core, line, payload, cycle)
            machine.net.send(core, home, 0, INV, cycle)  # ack
        entry.owner = -1
        entry.sharers = 0
        self.directory.pop(line, None)

    # -- CE extension points (no-ops in the baseline) ---------------------------

    def _on_local_access(
        self, core: int, line: int, payload: MesiLine, mask: int, is_write: bool, cycle: int
    ) -> None:
        """Called after every completed access; CE updates access bits here."""

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
        """Called at a remote holder before it is invalidated/downgraded."""

    def _home_metadata_check(
        self, core: int, line: int, mask: int, is_write: bool, cycle: int, bank: int
    ) -> tuple[int, tuple[int, int] | None]:
        """Called at the home bank during a miss/upgrade.

        Returns ``(extra latency, fill)``; ``fill`` is an ``(rmask,
        wmask)`` pair when the requester's own spilled metadata is
        re-filled into its L1 copy (CE/CE+ only).
        """
        return 0, None

    def _on_line_removed(self, core: int, line: int, payload: MesiLine, cycle: int) -> None:
        """Called when a line leaves an L1 (eviction or invalidation);
        CE spills live access bits here."""

    # -- the access path ---------------------------------------------------------

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
            if not is_write or payload.state >= E:
                if is_write:
                    payload.state = M
                self._on_local_access(core, line, payload, mask, is_write, cycle)
                return latency
            # Write hit in S: upgrade without data transfer.
            stats.upgrades += 1
            latency += self._upgrade(core, line, mask, cycle)
            payload.state = M
            self._on_local_access(core, line, payload, mask, is_write, cycle)
            return latency

        stats.l1_misses += 1
        miss_latency, state, fill = self._miss(core, line, mask, is_write, cycle)
        latency += miss_latency

        new_payload = MesiLine(state)
        if fill is not None:
            new_payload.read_mask, new_payload.write_mask = fill
            new_payload.region = self.region[core]
        cache.insert(line, new_payload)  # outward evictions via callback
        self._on_local_access(core, line, new_payload, mask, is_write, cycle)
        return latency

    # -- transactions ---------------------------------------------------------------

    def _upgrade(self, core: int, line: int, mask: int, cycle: int) -> int:
        """Write hit in S (or, under MOESI, in O): gain exclusivity.

        Invalidates every other S copy and — when someone *else* owns
        the line in O — the owner's copy too.  The owner's dirty data
        need not move: every S copy it supplied holds the same values,
        so the requester already has current data.
        """
        net = self.machine.net
        home = (line >> self.bank_shift) & self.bank_mask
        latency = net.send(core, home, 0, REQ, cycle)
        self.stats.dir_lookups += 1
        latency += self.llc_hit_latency
        extra, _ = self._home_metadata_check(core, line, mask, True, cycle, home)
        latency += extra
        entry = self._dir(line)
        sharers_rt = self._invalidate_sharers(entry, core, line, mask, True, cycle, home)
        owner_rt = 0
        if entry.owner not in (-1, core):
            owner = entry.owner
            self.stats.invalidations_sent += 1
            inv_lat = net.send(home, owner, 0, INV, cycle)
            payload = self.l1[owner].peek(line)
            if payload is not None:
                self._check_remote(
                    owner, payload, line, core, mask, True, cycle, "inv"
                )
                self.l1[owner].invalidate(line)
                self._on_line_removed(owner, line, payload, cycle)
            ack_lat = net.send(owner, core, 0, INV, cycle)
            owner_rt = inv_lat + self.l1_hit_latency + ack_lat
        latency += max(sharers_rt, owner_rt)
        entry.owner = core
        entry.sharers = 0
        return latency

    def _miss(
        self, core: int, line: int, mask: int, is_write: bool, cycle: int
    ) -> tuple[int, int, tuple[int, int] | None]:
        """Service an L1 miss; returns (latency, new state, metadata fill)."""
        machine = self.machine
        net = machine.net
        home = (line >> self.bank_shift) & self.bank_mask

        latency = net.send(core, home, 0, REQ, cycle)
        self.stats.dir_lookups += 1
        latency += self.llc_hit_latency
        extra, fill = self._home_metadata_check(core, line, mask, is_write, cycle, home)
        latency += extra

        entry = self._dir(line)
        if is_write:
            latency += self._invalidate_sharers(entry, core, line, mask, True, cycle, home)
            if entry.owner not in (-1, core):
                latency += self._fetch_from_owner(
                    entry, core, line, mask, True, cycle, home, downgrade_to_s=False
                )
            else:
                latency += machine.llc_data_access(home, line, cycle, make_dirty=False)
                latency += net.send(home, core, self.line_size, DATA, cycle)
            entry.owner = core
            entry.sharers = 0
            return latency, M, fill

        if entry.owner not in (-1, core):
            latency += self._fetch_from_owner(
                entry, core, line, mask, False, cycle, home, downgrade_to_s=True
            )
            entry.sharers |= 1 << core
            return latency, S, fill

        latency += machine.llc_data_access(home, line, cycle, make_dirty=False)
        latency += net.send(home, core, self.line_size, DATA, cycle)
        if entry.sharers == 0:
            entry.owner = core
            return latency, E, fill
        entry.sharers |= 1 << core
        return latency, S, fill

    def _invalidate_sharers(
        self,
        entry: DirEntry,
        req_core: int,
        line: int,
        mask: int,
        req_is_write: bool,
        cycle: int,
        home: int,
    ) -> int:
        """Invalidate every S copy other than the requester's.

        Invalidation round trips proceed in parallel; the latency charged
        is the slowest (home -> sharer -> requester-ack) chain.
        """
        net = self.machine.net
        worst = 0
        for sharer in entry.sharer_list():
            if sharer == req_core:
                continue
            self.stats.invalidations_sent += 1
            inv_lat = net.send(home, sharer, 0, INV, cycle)
            payload = self.l1[sharer].peek(line)
            if payload is not None:
                self._check_remote(
                    sharer, payload, line, req_core, mask, req_is_write, cycle, "inv"
                )
                self.l1[sharer].invalidate(line)
                self._on_line_removed(sharer, line, payload, cycle)
            ack_lat = net.send(sharer, req_core, 0, INV, cycle)
            worst = max(worst, inv_lat + self.l1_hit_latency + ack_lat)
        entry.sharers = 1 << req_core if (entry.sharers >> req_core) & 1 else 0
        return worst

    def _fetch_from_owner(
        self,
        entry: DirEntry,
        req_core: int,
        line: int,
        mask: int,
        req_is_write: bool,
        cycle: int,
        home: int,
        *,
        downgrade_to_s: bool,
    ) -> int:
        """Forward the request to the exclusive owner, which supplies data.

        For a read the owner downgrades to S and writes the line back to
        the LLC (off the critical path); for a write it surrenders the
        line entirely.
        """
        machine = self.machine
        net = machine.net
        owner = entry.owner
        self.stats.forwards += 1

        latency = net.send(home, owner, 0, FWD, cycle)
        latency += self.l1_hit_latency
        payload = self.l1[owner].peek(line)
        if payload is not None:
            self._check_remote(
                owner, payload, line, req_core, mask, req_is_write, cycle, "fwd"
            )
            if downgrade_to_s:
                if self.cfg.use_owned_state and payload.state in DIRTY_STATES:
                    # MOESI: the owner keeps the dirty data in O and keeps
                    # supplying readers — no LLC writeback at all.
                    payload.state = O
                elif self.cfg.use_owned_state:
                    # clean E copy: the LLC already has the data
                    payload.state = S
                else:
                    # Plain MESI: owner pushes the (possibly dirty) line
                    # into the LLC so the directory can source later
                    # sharers; not on the critical path.
                    payload.state = S
                    self.stats.downgrade_writebacks += 1
                    machine.send_data(owner, home, cycle)
                    machine.llc_writeback(home, line, cycle)
            else:
                self.l1[owner].invalidate(line)
                self._on_line_removed(owner, line, payload, cycle)
        else:  # pragma: no cover - directory is precise, so this is a bug
            raise AssertionError("directory pointed at an owner without the line")
        latency += net.send(owner, req_core, self.line_size, DATA, cycle)

        if downgrade_to_s:
            if self.cfg.use_owned_state and payload.state == O:
                # the owner remains the line's owner; the reader joins S
                entry.sharers |= 1 << req_core
            else:
                entry.sharers |= 1 << owner
                entry.owner = -1
        else:
            entry.owner = -1
        return latency

    def _evict(self, core: int, line: int, payload: MesiLine, cycle: int) -> None:
        """Handle an L1 capacity eviction (off the critical path)."""
        machine = self.machine
        self.stats.l1_evictions += 1
        entry = self._dir(line)
        if payload.state in DIRTY_STATES:
            self.stats.l1_writebacks += 1
            home = (line >> self.bank_shift) & self.bank_mask
            machine.send_data(core, home, cycle)
            machine.llc_writeback(home, line, cycle)
        # Directory updated directly (see module docstring).
        if entry.owner == core:
            entry.owner = -1
        entry.sharers &= ~(1 << core)
        self._on_line_removed(core, line, payload, cycle)

    # -- model-checker fingerprint --------------------------------------------------

    def snapshot(self) -> tuple:
        caches = []
        for core in range(self.cfg.num_cores):
            region = self.region[core]
            caches.append(tuple(
                (
                    # items() order is LRU order: it decides victims, so
                    # it is behavior and belongs in the fingerprint.
                    line,
                    payload.state,
                    # Masks of an ended region are semantically cleared;
                    # canonicalize them to zero so states merge.
                    payload.read_mask if payload.region == region else 0,
                    payload.write_mask if payload.region == region else 0,
                )
                for line, payload in self.l1[core].items()
            ))
        directory = tuple(
            (line, entry.owner, entry.sharers)
            for line, entry in sorted(self.directory.items())
            if entry.owner != -1 or entry.sharers
        )
        bounded = ()
        if self.dir_store is not None:
            bounded = tuple(
                tuple(line for line, _entry in store.items())
                for store in self.dir_store
            )
        return super().snapshot() + (tuple(caches), directory, bounded)
