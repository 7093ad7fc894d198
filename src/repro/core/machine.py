"""Machine wiring: the protocol-independent hardware of one simulated CMP.

A :class:`Machine` owns everything the four protocols share — the address
map, the mesh network, the DRAM controller, the LLC data banks and the
stats object — so a protocol only adds its own coherence/metadata state
on top.  The LLC is modeled as *data presence* (for latency and DRAM
traffic); directory state is kept by the protocols in unbounded maps
(a full-map directory), decoupling coherence correctness from LLC
capacity effects.
"""

from __future__ import annotations

import os

from ..common.config import SystemConfig
from ..mem.address import AddressMap
from ..mem.cache import SetAssocCache
from ..mem.dram import DramModel
from ..noc.messages import DATA
from ..noc.network import MeshNetwork
from ..noc.topology import MeshTopology
from .stats import Stats


class LLCLine:
    """Payload of one LLC data line: just a dirty bit."""

    __slots__ = ("dirty",)

    def __init__(self, dirty: bool = False):
        self.dirty = dirty


class Machine:
    """Shared hardware state of one simulation run."""

    __slots__ = (
        "cfg",
        "amap",
        "topology",
        "net",
        "dram",
        "llc_banks",
        "stats",
        "sanitize",
        "line_size",
        "llc_hit_latency",
        "bank_shift",
        "bank_mask",
    )

    def __init__(self, cfg: SystemConfig, *, sanitize: bool | None = None):
        self.cfg = cfg
        # Coherence invariant sanitizer (repro.modelcheck.sanitize).  The
        # environment variable is the cross-process switch: harness
        # workers are forked/spawned and re-build their own Machines.
        if sanitize is None:
            sanitize = bool(os.environ.get("REPRO_SANITIZE"))
        self.sanitize = sanitize
        self.amap = AddressMap(cfg.line_size, cfg.num_banks)
        self.topology = MeshTopology(cfg.mesh_width, cfg.mesh_height)
        self.net = MeshNetwork(self.topology, cfg.noc)
        self.dram = DramModel(cfg.dram)
        self.llc_banks = [
            SetAssocCache.from_config(cfg.llc_bank) for _ in range(cfg.num_banks)
        ]
        self.stats = Stats()
        # Plain-attribute copies of per-access constants: home bank =
        # ``(line >> bank_shift) & bank_mask`` (AddressMap.home_bank).
        self.line_size = cfg.line_size
        self.llc_hit_latency = cfg.llc_bank.hit_latency
        self.bank_shift = cfg.line_size.bit_length() - 1
        self.bank_mask = cfg.num_banks - 1

    # -- LLC data path ----------------------------------------------------------

    def llc_data_access(
        self, bank: int, line_addr: int, cycle: int, *, make_dirty: bool
    ) -> int:
        """Access a line's data at an LLC bank, fetching from DRAM on miss.

        Returns the latency of the data access (bank hit latency, plus
        DRAM fetch and any dirty-victim writeback on a miss).  Updates
        hit/miss/eviction counters and off-chip byte accounting.
        """
        cache = self.llc_banks[bank]
        latency = self.llc_hit_latency
        payload = cache.get(line_addr)
        if payload is not None:
            self.stats.llc_hits += 1
            if make_dirty:
                payload.dirty = True
            return latency

        self.stats.llc_misses += 1
        latency += self.dram.access(
            cycle, self.line_size, write=False, metadata=False
        )
        victim = cache.insert(line_addr, LLCLine(dirty=make_dirty))
        if victim is not None:
            self.stats.llc_evictions += 1
            _, victim_line = victim
            if victim_line.dirty:
                # Victim writeback overlaps the fetch; charge bytes, not time.
                self.dram.access(cycle, self.line_size, write=True, metadata=False)
        return latency

    def llc_writeback(self, bank: int, line_addr: int, cycle: int) -> int:
        """Install a dirty line into an LLC bank (an L1 writeback landing).

        If the line is absent it is allocated without a DRAM fill (the
        writeback supplies the whole line).
        """
        cache = self.llc_banks[bank]
        payload = cache.get(line_addr)
        if payload is not None:
            payload.dirty = True
            return self.llc_hit_latency
        victim = cache.insert(line_addr, LLCLine(dirty=True))
        if victim is not None:
            self.stats.llc_evictions += 1
            _, victim_line = victim
            if victim_line.dirty:
                self.dram.access(cycle, self.line_size, write=True, metadata=False)
        return self.llc_hit_latency

    # -- convenience -------------------------------------------------------------

    def home_bank(self, line_addr: int) -> int:
        return (line_addr >> self.bank_shift) & self.bank_mask

    def send_data(self, src: int, dst: int, cycle: int) -> int:
        """Send one line-sized data message."""
        return self.net.send(src, dst, self.line_size, DATA, cycle)
