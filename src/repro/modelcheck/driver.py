"""Replay driver: runs one interleaving of a workload on a real protocol.

The driver owns everything one exploration step needs — a fresh
:class:`~repro.core.machine.Machine`, the protocol under test, a
:class:`~repro.verify.recorder.ScheduleRecorder` and a ghost memory —
and executes ``(core, event)`` steps exactly the way the simulator
would: the access is recorded *before* the protocol sees it, boundaries
record region end/start around ``region_boundary``.

Two deliberate differences from the simulator:

* **Cycles are the global step index** (times a stride).  Every path to
  the same per-core position vector executes the same number of steps,
  protocol latencies never feed back into timing, and the recorded
  intervals are exact — so the oracle comparison needs no photo-finish
  margin.
* **States are reproduced by replay, not by cloning.**  Protocol
  instances hold ``on_evict`` closures over themselves, which deep copy
  cannot split; replaying a step prefix from scratch is cheap at model
  checking scale and trivially correct.

The ghost memory gives MESI-family runs a data-value check: a global
version per line is bumped by every write, and the version each cached
copy *would* hold is tracked from fills and writes.  Under eager
invalidation every cached copy must always be current.  ARC legally
holds stale copies mid-region, so its value semantics are checked
structurally (self-invalidation/self-downgrade invariants) plus the
oracle equivalence, not through the ghost.

A CE or CE+ run also steps a lockstep *twin*: the protocol it must
refine (MESI for CE, CE for CE+) on the same machine, events and
mutation.  The ``refinement`` invariant compares the two after every
step; the twin stays out of the snapshot fingerprint.
"""

from __future__ import annotations

from ..common.bitops import byte_mask
from ..common.config import AimConfig, CacheConfig, ProtocolKind, SystemConfig
from ..core.machine import Machine
from ..protocols import make_protocol
from ..protocols.base import CoherenceProtocol
from ..trace.events import READ, WRITE
from ..verify.recorder import ScheduleRecorder
from .workload import ACCESS_SIZE, MCEvent

#: cycles between scripted steps (room for distinct start/end stamps)
CYCLE_STRIDE = 64

#: the refinement theorems: a protocol -> the protocol it must refine.
#: CE is MESI plus detection, CE+ is CE plus an AIM (the ``refinement``
#: invariant compares each run with a lockstep twin of the lower one).
REFINES: dict[ProtocolKind, ProtocolKind] = {
    ProtocolKind.CE: ProtocolKind.MESI,
    ProtocolKind.CEPLUS: ProtocolKind.CE,
}

#: CLI/driver protocol keys -> (ProtocolKind, AIM override).  ``aim`` is
#: CE+ with a deliberately tiny AIM so the bounded workloads overflow it
#: and exercise the eviction/writeback path; ``ceplus`` accepts both the
#: CLI-friendly spelling and the config's ``ce+``.
PROTOCOL_KEYS: dict[str, tuple[ProtocolKind, AimConfig | None]] = {
    "mesi": (ProtocolKind.MESI, None),
    "ce": (ProtocolKind.CE, None),
    "ceplus": (ProtocolKind.CEPLUS, None),
    "ce+": (ProtocolKind.CEPLUS, None),
    "arc": (ProtocolKind.ARC, None),
    "aim": (
        ProtocolKind.CEPLUS,
        AimConfig(size=64, assoc=2, entry_bytes=32, latency=3),
    ),
}


def modelcheck_config(protocol: str, cores: int) -> SystemConfig:
    """A deliberately tiny machine: 2-line L1s so a third line forces
    evictions (CE spills, AIM pressure), an 8-line LLC, and the smallest
    power-of-two core count that fits the active cores."""
    kind, aim = PROTOCOL_KEYS[protocol][0], PROTOCOL_KEYS[protocol][1]
    num_cores = 2 if cores <= 2 else 4
    kwargs = dict(
        num_cores=num_cores,
        protocol=kind,
        l1=CacheConfig(size=128, assoc=2, line_size=64, hit_latency=1),
        llc_bank=CacheConfig(size=512, assoc=8, line_size=64, hit_latency=10),
        use_owned_state=(kind is ProtocolKind.MESI),
    )
    if aim is not None:
        kwargs["aim"] = aim
    return SystemConfig(**kwargs)


class Run:
    """One in-flight interleaving: protocol + recorder + ghost memory,
    plus the lockstep ``twin`` of the protocol it refines (or None)."""

    __slots__ = (
        "cfg",
        "cores",
        "machine",
        "protocol",
        "twin",
        "recorder",
        "amap",
        "steps_done",
        "ghost",
        "shadow",
        "track_values",
        "last_step",
        "boundaries",
    )

    def __init__(
        self, cfg: SystemConfig, cores: int, mutate=None, refine: bool = True
    ):
        self.cfg = cfg
        self.cores = cores
        self.machine = Machine(cfg)
        self.protocol = make_protocol(self.machine)
        self.protocol.active_cores = cores
        if mutate is not None:
            mutate(self.protocol)
        # Same events, same mutation, no recorder: the twin is never
        # fingerprinted, only compared (invariants.check_refinement).
        self.twin: CoherenceProtocol | None = None
        low = REFINES.get(cfg.protocol) if refine else None
        if low is not None:
            self.twin = make_protocol(Machine(cfg.with_protocol(low)))
            self.twin.active_cores = cores
            if mutate is not None:
                mutate(self.twin)
        self.recorder = ScheduleRecorder()
        self.amap = self.machine.amap
        self.steps_done = 0
        # ghost memory: line -> committed version; shadow: per core, the
        # version its cached copy holds (MESI family only)
        self.ghost: dict[int, int] = {}
        self.shadow: list[dict[int, int]] = [dict() for _ in range(cores)]
        self.track_values = cfg.protocol is not ProtocolKind.ARC
        self.last_step: tuple[int, MCEvent] | None = None
        # independently counted boundaries per core (region-index check)
        self.boundaries = [0] * cores

    # -- stepping -----------------------------------------------------------

    def addr_of(self, event: MCEvent) -> int:
        return event.slot * self.cfg.line_size + event.offset

    def step(self, core: int, event: MCEvent) -> None:
        """Execute one scripted event on ``core`` (mirrors the simulator)."""
        self.steps_done += 1
        cycle = self.steps_done * CYCLE_STRIDE
        protocol = self.protocol
        if event.kind in (READ, WRITE):
            is_write = event.kind == WRITE
            addr = self.addr_of(event)
            line = self.amap.line(addr)
            cached_before = self._cached(core, line)
            self.recorder.record_access(
                core,
                cycle,
                protocol.region[core],
                line,
                byte_mask(self.amap.offset(addr), ACCESS_SIZE, self.cfg.line_size),
                is_write,
            )
            protocol.access(core, addr, ACCESS_SIZE, is_write, cycle)
            if self.twin is not None:
                self.twin.access(core, addr, ACCESS_SIZE, is_write, cycle)
            if self.track_values:
                self._update_ghost(core, line, is_write, cached_before)
        else:
            old_region = protocol.region[core]
            self.recorder.record_region_end(core, old_region, cycle)
            protocol.region_boundary(core, cycle, event.kind)
            if self.twin is not None:
                self.twin.region_boundary(core, cycle, event.kind)
            self.recorder.record_region_start(
                core, protocol.region[core], cycle
            )
            self.boundaries[core] += 1
        self.last_step = (core, event)

    def finalize(self) -> None:
        """Drain the run (ARC flushes outstanding deltas here)."""
        self.protocol.finalize((self.steps_done + 1) * CYCLE_STRIDE)

    # -- ghost memory -------------------------------------------------------

    def _cached(self, core: int, line: int) -> bool:
        return self.protocol.l1[core].peek(line) is not None

    def _update_ghost(
        self, core: int, line: int, is_write: bool, cached_before: bool
    ) -> None:
        ghost = self.ghost
        if not cached_before:
            # A MESI-family fill always delivers current data: a dirty
            # owner forwards it, otherwise the LLC/DRAM copy is current.
            self.shadow[core][line] = ghost.get(line, 0)
        if is_write:
            ghost[line] = ghost.get(line, 0) + 1
            self.shadow[core][line] = ghost[line]
        # Copies that left any L1 (eviction, invalidation, recall) no
        # longer hold a value; drop their shadow entries.
        for c in range(self.cores):
            stale = [
                ln for ln in self.shadow[c] if self.protocol.l1[c].peek(ln) is None
            ]
            for ln in stale:
                del self.shadow[c][ln]


class Driver:
    """Factory for fresh :class:`Run` instances of one configuration."""

    __slots__ = ("protocol_key", "cores", "addrs", "cfg", "mutate")

    def __init__(self, protocol: str, cores: int, addrs: int, mutate=None):
        if protocol not in PROTOCOL_KEYS:
            raise ValueError(
                f"unknown protocol {protocol!r}; expected one of "
                f"{sorted(PROTOCOL_KEYS)}"
            )
        if not 2 <= cores <= 3:
            raise ValueError("model checking supports 2 or 3 cores")
        if not 2 <= addrs <= 3:
            raise ValueError("model checking supports 2 or 3 address slots")
        self.protocol_key = protocol
        self.cores = cores
        self.addrs = addrs
        self.cfg = modelcheck_config(protocol, cores)
        self.mutate = mutate

    def new_run(self, refine: bool = True) -> Run:
        """A fresh run; ``refine=False`` leaves out the lockstep twin
        (the oracle pass checks detection, not refinement)."""
        return Run(self.cfg, self.cores, mutate=self.mutate, refine=refine)

    def replay(self, steps, refine: bool = True) -> Run:
        """Fresh run with ``steps`` (a sequence of (core, event)) applied."""
        run = self.new_run(refine)
        for core, event in steps:
            run.step(core, event)
        return run
