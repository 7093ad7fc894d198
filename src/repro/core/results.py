"""Run results and cross-protocol comparison.

:class:`RunResult` bundles everything one simulation produced — cycles,
the stats counters, the network's and DRAM's accounting — and computes
derived metrics (energy, normalized ratios).  :class:`Comparison` holds
the same program run under several protocols and produces the
normalized-to-MESI numbers every figure reports.

Results are **pickle transport**: the parallel executor ships them back
from worker processes and the on-disk result cache stores them, so a
:class:`RunResult` (and everything it references — :class:`Stats`,
:class:`~repro.noc.network.MeshNetwork`, :class:`~repro.mem.dram.DramModel`)
must round-trip through ``pickle`` without losing any field that
:meth:`RunResult.summary` or :meth:`RunResult.energy` reads.  The
round-trip tests in ``tests/test_results.py`` police this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.config import ProtocolKind, SystemConfig
from ..energy.model import EnergyBreakdown, compute_energy
from ..energy.params import EnergyParams
from ..mem.dram import DramModel
from ..noc.messages import CATEGORY_NAMES
from ..noc.network import MeshNetwork
from .stats import Stats


@dataclass
class RunResult:
    """Everything measured in one simulation run."""

    cfg: SystemConfig
    program_name: str
    stats: Stats
    net: MeshNetwork
    dram: DramModel
    energy_params: EnergyParams = field(default_factory=EnergyParams)

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def protocol(self) -> ProtocolKind:
        return self.cfg.protocol

    @property
    def flit_hops(self) -> int:
        return self.net.total_flit_hops

    @property
    def offchip_bytes(self) -> int:
        return self.dram.total_bytes

    @property
    def offchip_metadata_bytes(self) -> int:
        return self.dram.metadata_bytes

    @property
    def num_conflicts(self) -> int:
        return len(self.stats.conflicts)

    def flit_hops_by_category(self) -> dict[str, int]:
        return {
            CATEGORY_NAMES[cat]: hops
            for cat, hops in enumerate(self.net.flit_hops_by_category)
        }

    def energy(self) -> EnergyBreakdown:
        """Fold the run's counters into the energy model."""
        with_aim = self.cfg.protocol in (ProtocolKind.CEPLUS, ProtocolKind.ARC)
        return compute_energy(
            self.energy_params,
            num_cores=self.cfg.num_cores,
            with_aim=with_aim,
            cycles=self.cycles,
            l1_accesses=self.stats.l1_accesses,
            l2_accesses=self.stats.l2_accesses if self.cfg.l2 is not None else 0,
            with_l2=self.cfg.l2 is not None,
            llc_accesses=self.stats.llc_accesses,
            aim_accesses=self.stats.aim_accesses + self.stats.arc_registrations,
            metadata_ops=self.stats.metadata_ops,
            dram_bytes=self.offchip_bytes,
            flit_hops=self.flit_hops,
        )

    def summary(self) -> dict[str, float]:
        """Flat metric dictionary (used by tables and tests)."""
        return {
            "cycles": self.cycles,
            "l1_miss_rate": self.stats.l1_miss_rate,
            "flit_hops": self.flit_hops,
            "offchip_bytes": self.offchip_bytes,
            "offchip_metadata_bytes": self.offchip_metadata_bytes,
            "energy_nj": self.energy().total_nj,
            "conflicts": self.num_conflicts,
            "peak_link_utilization": self.net.peak_link_utilization,
            "saturated_link_windows": self.net.saturated_link_windows,
            "aim_hit_rate": self.stats.aim_hit_rate,
        }


@dataclass
class Comparison:
    """One program, several protocols; normalization helpers."""

    program_name: str
    results: dict[ProtocolKind, RunResult]

    @property
    def baseline(self) -> RunResult:
        base = self.results.get(ProtocolKind.MESI)
        if base is None:
            raise KeyError("comparison has no MESI baseline run")
        return base

    def normalized(self, metric: str) -> dict[ProtocolKind, float]:
        """``metric`` of each protocol divided by the MESI baseline's.

        ``metric`` is any key of :meth:`RunResult.summary`.
        """
        base_value = self.baseline.summary()[metric]
        if base_value == 0:
            raise ZeroDivisionError(
                f"baseline {metric} is zero for {self.program_name}"
            )
        return {
            kind: result.summary()[metric] / base_value
            for kind, result in self.results.items()
        }

    def summaries(self) -> dict[str, dict[str, float]]:
        """Full :meth:`RunResult.summary` of every run, keyed by protocol.

        The flattened, order-independent view of a comparison — what
        the determinism tests diff between serial, parallel and cached
        executions.
        """
        return {
            kind.value: self.results[kind].summary()
            for kind in sorted(self.results, key=lambda k: k.value)
        }

    def normalized_runtime(self) -> dict[ProtocolKind, float]:
        return self.normalized("cycles")

    def normalized_energy(self) -> dict[ProtocolKind, float]:
        return self.normalized("energy_nj")

    def normalized_traffic(self) -> dict[ProtocolKind, float]:
        return self.normalized("flit_hops")

    def normalized_offchip(self) -> dict[ProtocolKind, float]:
        return self.normalized("offchip_bytes")


def geomean(values: list[float]) -> float:
    """Geometric mean (the aggregation architecture papers use)."""
    if not values:
        raise ValueError("geomean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def render_result(result: RunResult) -> str:
    """Canonical text rendering of everything a run measured.

    The byte-identity measuring stick: the summary metrics, every
    ``Stats`` field, the network/DRAM accounting and the full conflict
    log.  Deterministic by construction: fixed field order (dataclass
    order for ``Stats``, sorted keys for the summary), ``repr`` for
    floats so no rounding can mask a divergence.  The service renders
    its ``simulate``/``compare`` results with it, and
    ``tests/golden/point_digests.json`` pins its digest per point.
    """
    lines = [
        f"program: {result.program_name}",
        f"protocol: {result.cfg.protocol.value}",
    ]
    for key in sorted(result.summary()):
        lines.append(f"summary.{key}: {result.summary()[key]!r}")
    for name in Stats.__dataclass_fields__:
        if name == "conflicts":
            continue
        lines.append(f"stats.{name}: {getattr(result.stats, name)!r}")
    for cat, hops in sorted(result.flit_hops_by_category().items()):
        lines.append(f"net.flit_hops.{cat}: {hops}")
    lines.append(f"net.peak_link_utilization: {result.net.peak_link_utilization!r}")
    lines.append(f"net.saturated_link_windows: {result.net.saturated_link_windows}")
    lines.append(f"dram.total_bytes: {result.dram.total_bytes}")
    lines.append(f"dram.metadata_bytes: {result.dram.metadata_bytes}")
    lines.append(f"conflicts: {len(result.stats.conflicts)}")
    for i, c in enumerate(result.stats.conflicts):
        lines.append(
            f"conflict[{i}]: cycle={c.cycle} line={c.line_addr:#x} "
            f"mask={c.byte_mask:#x} first={c.first_core}@{c.first_region}"
            f"{'W' if c.first_was_write else 'R'} "
            f"second={c.second_core}@{c.second_region}"
            f"{'W' if c.second_was_write else 'R'} by={c.detected_by}"
        )
    return "\n".join(lines) + "\n"
