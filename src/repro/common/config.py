"""System configuration.

Every experiment is parameterized by a :class:`SystemConfig`, which nests
component configs for the private L1s, the shared banked LLC, the AIM
(access information memory — the CE+ metadata cache), the mesh
interconnect and the DRAM channels.  Defaults follow the simulated-system
parameters typical of the CE/ARC line of work (32KB 8-way L1s, 64B lines,
a shared LLC with one bank per core, a 2D mesh, and ~160-cycle DRAM).

``SystemConfig.table()`` renders the configuration as the rows of the
paper's Table I ("simulated system parameters").
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import ConfigError
from .units import format_size, is_power_of_two, parse_size


class ProtocolKind(str, Enum):
    """The four systems evaluated by the paper.

    * ``MESI`` — baseline directory MESI coherence, no conflict detection.
      All results are normalized to this configuration.
    * ``CE`` — Conflict Exceptions (Lucia et al., ISCA 2010): MESI plus
      per-line per-core byte access bits, with metadata for evicted lines
      spilled to main memory.
    * ``CEPLUS`` — CE plus the on-chip AIM metadata cache (the paper's
      first contribution).
    * ``ARC`` — conflict detection on self-invalidation/release-consistency
      coherence (the paper's second contribution).
    """

    MESI = "mesi"
    CE = "ce"
    CEPLUS = "ce+"
    ARC = "arc"

    @property
    def detects_conflicts(self) -> bool:
        return self is not ProtocolKind.MESI


#: the paper's four systems, the baseline first: what a comparison runs
ALL_PROTOCOLS = (
    ProtocolKind.MESI,
    ProtocolKind.CE,
    ProtocolKind.CEPLUS,
    ProtocolKind.ARC,
)

#: env var selecting the simulation engine across process boundaries
#: (harness workers are forked and rebuild their own simulators — same
#: pattern as $REPRO_SANITIZE).  The engine is not a config field: both
#: engines are byte-identical, so it must not reach cache keys.
ENGINE_ENV = "REPRO_ENGINE"

ENGINES = ("scalar", "batch")

#: the batch engine is the default: the differential suite pins it
#: byte-identical to scalar, so there is no accuracy trade-off
DEFAULT_ENGINE = "batch"


def resolve_engine(engine: str | None = None) -> str:
    """Resolve the engine choice: explicit argument, then ``$REPRO_ENGINE``,
    then the default."""
    value = engine if engine is not None else os.environ.get(ENGINE_ENV)
    if value is None or not value.strip():
        return DEFAULT_ENGINE
    value = value.strip().lower()
    if value not in ENGINES:
        raise ConfigError(
            f"unknown engine {value!r}: expected one of {', '.join(ENGINES)}"
        )
    return value


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative cache with LRU replacement."""

    size: int = 32 * 1024
    assoc: int = 8
    line_size: int = 64
    hit_latency: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", parse_size(self.size))
        if self.assoc <= 0:
            raise ConfigError(f"associativity must be positive, got {self.assoc}")
        if not is_power_of_two(self.line_size):
            raise ConfigError(f"line size must be a power of two, got {self.line_size}")
        if self.hit_latency < 0:
            raise ConfigError("hit latency cannot be negative")
        if self.size % (self.assoc * self.line_size) != 0:
            raise ConfigError(
                f"cache size {self.size} not divisible by assoc*line "
                f"({self.assoc}*{self.line_size})"
            )
        if self.num_sets == 0 or not is_power_of_two(self.num_sets):
            raise ConfigError(
                f"number of sets ({self.num_sets}) must be a power of two"
            )

    @property
    def num_sets(self) -> int:
        return self.size // (self.assoc * self.line_size)

    @property
    def num_lines(self) -> int:
        return self.size // self.line_size

    def describe(self) -> str:
        return (
            f"{format_size(self.size)}, {self.assoc}-way, "
            f"{self.line_size}B lines, {self.hit_latency}-cycle hit"
        )


@dataclass(frozen=True)
class AimConfig:
    """The access information memory (AIM): CE+'s on-chip metadata cache.

    One AIM slice sits next to each LLC bank and caches the byte-level
    access masks of lines whose L1 copies were evicted mid-region.  An AIM
    miss falls through to main memory, exactly as in plain CE.

    ``entry_bytes`` is the storage footprint of one line's metadata
    (read mask + write mask per *interested* core plus tag overhead); it
    sizes both AIM capacity in entries and the off-chip bytes moved when
    metadata spills to DRAM.
    """

    size: int = 128 * 1024
    assoc: int = 8
    latency: int = 3
    entry_bytes: int = 32
    write_through: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", parse_size(self.size))
        if self.assoc <= 0:
            raise ConfigError("AIM associativity must be positive")
        if self.latency < 0:
            raise ConfigError("AIM latency cannot be negative")
        if self.entry_bytes <= 0:
            raise ConfigError("AIM entry size must be positive")
        if self.size % (self.assoc * self.entry_bytes) != 0:
            raise ConfigError(
                f"AIM size {self.size} not divisible by assoc*entry "
                f"({self.assoc}*{self.entry_bytes})"
            )
        if not is_power_of_two(self.num_sets):
            raise ConfigError(
                f"AIM set count ({self.num_sets}) must be a power of two"
            )

    @property
    def num_sets(self) -> int:
        return self.size // (self.assoc * self.entry_bytes)

    @property
    def num_entries(self) -> int:
        return self.size // self.entry_bytes

    def describe(self) -> str:
        policy = "write-through" if self.write_through else "write-back"
        return (
            f"{format_size(self.size)}/bank, {self.assoc}-way, "
            f"{self.entry_bytes}B entries, {self.latency}-cycle, {policy}"
        )


@dataclass(frozen=True)
class NocConfig:
    """2D-mesh on-chip network model.

    Messages are broken into ``flit_bytes`` flits; each hop costs
    ``router_latency + link_latency`` cycles.  Contention is modeled per
    link over windows of ``window_cycles``: when a link's flit count in
    the current window exceeds ``saturation_fraction`` of its capacity
    (one flit/cycle), traversing messages pay a queueing penalty that
    grows with utilization (an M/D/1-flavored approximation).
    """

    flit_bytes: int = 16
    link_latency: int = 1
    router_latency: int = 2
    window_cycles: int = 2048
    saturation_fraction: float = 0.55
    max_queue_penalty: int = 64

    def __post_init__(self) -> None:
        if self.flit_bytes <= 0:
            raise ConfigError("flit size must be positive")
        if self.link_latency < 0 or self.router_latency < 0:
            raise ConfigError("NoC latencies cannot be negative")
        if self.window_cycles <= 0:
            raise ConfigError("NoC window must be positive")
        if not (0.0 < self.saturation_fraction <= 1.0):
            raise ConfigError("saturation fraction must be in (0, 1]")
        if self.max_queue_penalty < 0:
            raise ConfigError("max queue penalty cannot be negative")

    def describe(self) -> str:
        return (
            f"2D mesh, XY routing, {self.flit_bytes}B flits, "
            f"{self.router_latency}-cycle routers, {self.link_latency}-cycle links"
        )


@dataclass(frozen=True)
class DramConfig:
    """Off-chip memory: fixed access latency plus per-channel bandwidth.

    Bandwidth is expressed as ``bytes_per_cycle`` per channel; demand
    beyond it within a window adds queueing delay, which is how CE's
    metadata traffic translates into runtime loss.
    """

    latency: int = 160
    channels: int = 4
    bytes_per_cycle: float = 8.0
    window_cycles: int = 4096
    max_queue_penalty: int = 400

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigError("DRAM latency cannot be negative")
        if self.channels <= 0:
            raise ConfigError("DRAM channel count must be positive")
        if self.bytes_per_cycle <= 0:
            raise ConfigError("DRAM bandwidth must be positive")
        if self.window_cycles <= 0:
            raise ConfigError("DRAM window must be positive")
        if self.max_queue_penalty < 0:
            raise ConfigError("max queue penalty cannot be negative")

    def describe(self) -> str:
        return (
            f"{self.channels} channels, {self.latency}-cycle access, "
            f"{self.bytes_per_cycle:g} B/cycle/channel"
        )


@dataclass(frozen=True)
class SystemConfig:
    """Complete configuration of one simulated system.

    The LLC is shared and banked with one bank per core (a tile-based
    CMP); ``llc_bank`` sizes a *single* bank.  The AIM config only
    matters for ``CEPLUS`` (and, for the access-info table capacity, for
    ``ARC``).
    """

    num_cores: int = 16
    protocol: ProtocolKind = ProtocolKind.MESI
    l1: CacheConfig = field(default_factory=CacheConfig)
    # Optional private L2 behind each L1 (exclusive hierarchy).  None —
    # the default — models the private side as the L1 alone.
    l2: CacheConfig | None = None
    llc_bank: CacheConfig = field(
        default_factory=lambda: CacheConfig(size=512 * 1024, assoc=16, hit_latency=10)
    )
    aim: AimConfig = field(default_factory=AimConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    halt_on_conflict: bool = False
    nonmem_cycles_per_event: int = 1
    # CE metadata spill/fill costs one DRAM metadata transfer of this many
    # bytes (per line, per direction).
    metadata_bytes: int = 32
    # ARC: clear access info lazily via epochs (the design default) or by
    # sending explicit clear messages at region end (ablation).
    arc_lazy_clear: bool = True
    # ARC ablation: write *through* shared data (VIPS-style) instead of
    # write-back + self-downgrade at region end.  Every shared-line write
    # sends its word (with piggybacked access masks) to the LLC bank
    # immediately: eager write-conflict detection and cheap boundaries,
    # paid for with per-write data messages.
    arc_write_through: bool = False
    # MESI-family directory capacity per bank.  None (default) models a
    # full-map directory; a bounded directory evicts entries under
    # pressure, *recalling* (invalidating) every cached copy of the
    # victim line — which forces CE metadata spills.
    directory_entries_per_bank: int | None = None
    # MESI-family: enable the Owned state (MOESI).  A read from a
    # modified owner downgrades it to O — it keeps the dirty data and
    # keeps supplying readers — instead of writing back to the LLC.
    # The paper's phrasing is "M(O)ESI-based coherence"; both variants
    # are supported (plain MESI is the default).
    use_owned_state: bool = False

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigError("core count must be positive")
        if not is_power_of_two(self.num_cores):
            raise ConfigError(
                f"core count must be a power of two for mesh/banking, got {self.num_cores}"
            )
        if isinstance(self.protocol, str):
            object.__setattr__(self, "protocol", ProtocolKind(self.protocol))
        if self.l1.line_size != self.llc_bank.line_size:
            raise ConfigError(
                "L1 and LLC must use the same line size "
                f"({self.l1.line_size} != {self.llc_bank.line_size})"
            )
        if self.l2 is not None and self.l2.line_size != self.l1.line_size:
            raise ConfigError(
                "L2 must use the L1's line size "
                f"({self.l2.line_size} != {self.l1.line_size})"
            )
        if self.l1.line_size > 64:
            # Byte masks are stored per line; keep them within a machine word
            # times a small factor so the pure-Python hot path stays cheap.
            raise ConfigError("line sizes above 64B are not supported")
        if self.nonmem_cycles_per_event < 0:
            raise ConfigError("non-memory cycles cannot be negative")
        if self.directory_entries_per_bank is not None:
            if self.directory_entries_per_bank < 8:
                raise ConfigError("a sparse directory needs at least 8 entries")
            if not is_power_of_two(self.directory_entries_per_bank):
                raise ConfigError("directory entries per bank must be a power of two")
        if self.metadata_bytes <= 0:
            raise ConfigError("metadata size must be positive")

    # -- derived geometry ------------------------------------------------

    @property
    def line_size(self) -> int:
        return self.l1.line_size

    @property
    def num_banks(self) -> int:
        """One LLC bank (and one AIM slice) per core tile."""
        return self.num_cores

    @property
    def mesh_width(self) -> int:
        """Mesh columns; the mesh is as square as a power-of-two allows."""
        exp = int(math.log2(self.num_cores))
        return 2 ** ((exp + 1) // 2)

    @property
    def mesh_height(self) -> int:
        return self.num_cores // self.mesh_width

    def with_protocol(self, protocol: ProtocolKind | str) -> "SystemConfig":
        """A copy of this config running a different protocol."""
        if isinstance(protocol, str):
            protocol = ProtocolKind(protocol)
        return replace(self, protocol=protocol)

    def with_cores(self, num_cores: int) -> "SystemConfig":
        """A copy of this config with a different core count."""
        return replace(self, num_cores=num_cores)

    # -- presentation ----------------------------------------------------

    def table(self) -> list[tuple[str, str]]:
        """Rows of the Table I-style system-parameters table."""
        rows = [
            ("Cores", f"{self.num_cores} in-order, 1 memory op/cycle issue"),
            ("L1 (private, per core)", self.l1.describe()),
        ]
        if self.l2 is not None:
            rows.append(("L2 (private, per core)", self.l2.describe()))
        return rows + [
            (
                "LLC (shared)",
                f"{self.num_banks} banks x {self.llc_bank.describe()}",
            ),
            ("AIM (CE+ metadata cache)", self.aim.describe()),
            (
                "Interconnect",
                f"{self.mesh_width}x{self.mesh_height} {self.noc.describe()}",
            ),
            ("Main memory", self.dram.describe()),
            ("CE metadata granularity", f"{self.metadata_bytes}B per line spill/fill"),
            ("Protocol", self.protocol.value),
        ]


# --------------------------------------------------------------------------
# stable fingerprints (result-cache keys, run manifests)
# --------------------------------------------------------------------------


def _canonical_value(value):
    """Reduce a config value to canonical JSON-compatible data.

    Only the value kinds that appear in config dataclasses are accepted;
    anything else is an error rather than a silently unstable repr.
    """
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical_value(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigError(
        f"cannot fingerprint config value of type {type(value).__name__}"
    )


#: ``repr(cfg)`` -> digest.  Keyed on the repr, not the config: an int
#: and a float field value compare and hash equal (``64 == 64.0``) but
#: canonicalize, and so fingerprint, differently.
_FINGERPRINTS: dict[str, str] = {}
_FINGERPRINT_MEMO_LIMIT = 4096


def config_fingerprint(cfg: SystemConfig) -> str:
    """Stable hex digest of a configuration's logical content.

    Two configs hash equal iff every field (recursively, including the
    nested cache/AIM/NoC/DRAM configs) is equal — the property the
    on-disk result cache's keys rely on.  The digest is independent of
    process, ``PYTHONHASHSEED`` and dataclass identity.  Each distinct
    config is digested once per process.
    """
    key = repr(cfg)
    digest = _FINGERPRINTS.get(key)
    if digest is None:
        canonical = json.dumps(
            _canonical_value(cfg), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        if len(_FINGERPRINTS) >= _FINGERPRINT_MEMO_LIMIT:
            _FINGERPRINTS.clear()
        _FINGERPRINTS[key] = digest
    return digest
