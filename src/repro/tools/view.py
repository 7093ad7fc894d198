"""Viewers: look at a workload or captured trace from five angles.

Each takes a workload name or a trace file (``.rtb``) and
prints one view of it:

* ``repro inspect`` — Table II-style characteristics, a region-length
  histogram and per-thread summaries; handy when designing generators
  or diagnosing why a protocol behaves the way it does on a workload;
* ``repro dump`` — a window of one thread's events in human form;
* ``repro conflicts`` — the region conflict exceptions one detector
  raises, summarized;
* ``repro heatmap`` — per-link NoC traffic drawn on the mesh, making
  hotspots (like the bank-0 concentration in the network-saturation
  experiment) visible at a glance;
* ``repro wsprofile`` — the miss-rate curve against private-cache size
  (no coherence, no timing): which sizes capture the working sets, and
  hence where CE's spill cliff will sit.

Usage::

    repro inspect lock-counter --threads 8 --scale 0.5
    repro dump saved.rtb --thread 2 --offset 100
    repro conflicts racy-writers --protocol arc --verbose
    repro heatmap false-sharing --protocol ce+ --threads 16
    repro wsprofile migratory-token --sizes 4,16,64,256
"""

from __future__ import annotations

import argparse
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..cli import add_target_args, pow2_cores, program_from_args
from ..common.config import CacheConfig, SystemConfig
from ..common.errors import ConflictRecord
from ..core.api import run_program
from ..core.simulator import Simulator
from ..harness.tables import TextTable
from ..mem.cache import SetAssocCache
from ..noc.network import MeshNetwork
from ..noc.topology import MeshTopology
from ..synth.base import registered_workloads
from ..trace.events import ACQUIRE, BARRIER, KIND_NAMES, RELEASE, WRITE
from ..trace.program import Program
from ..trace.regions import region_ids, region_lengths
from ..trace.validate import validate_program

HIST_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

# --------------------------------------------------------------------------
# inspect
# --------------------------------------------------------------------------


def characteristics_table(program: Program, line_size: int = 64) -> TextTable:
    stats = program.stats(line_size)
    table = TextTable(f"Workload: {program.name}", ["characteristic", "value"])
    table.add_row("threads", stats.num_threads)
    table.add_row("events", stats.num_events)
    table.add_row("accesses", stats.num_accesses)
    table.add_row("writes", stats.num_writes)
    table.add_row("write fraction", stats.write_fraction)
    table.add_row("sync ops", stats.num_sync_ops)
    table.add_row("regions", stats.num_regions)
    table.add_row("mean region length", stats.mean_region_length)
    table.add_row("distinct lines", stats.num_lines)
    table.add_row("shared lines", stats.shared_lines)
    table.add_row("shared fraction", stats.shared_fraction)
    return table


def region_histogram(program: Program) -> TextTable:
    """Histogram of region lengths (accesses per region) across threads."""
    lengths = np.concatenate(
        [region_lengths(trace) for trace in program.traces]
        or [np.zeros(0, dtype=np.int64)]
    )
    table = TextTable("Region length histogram", ["bucket", "regions", "share"])
    if len(lengths) == 0:
        return table
    previous = 0
    total = len(lengths)
    for bucket in HIST_BUCKETS:
        count = int(np.count_nonzero((lengths >= previous) & (lengths < bucket)))
        if count:
            table.add_row(f"[{previous}, {bucket})", count, count / total)
        previous = bucket
    count = int(np.count_nonzero(lengths >= previous))
    if count:
        table.add_row(f">= {previous}", count, count / total)
    return table


def per_thread_table(program: Program) -> TextTable:
    table = TextTable(
        "Per-thread profile",
        ["thread", "events", "accesses", "writes", "sync ops", "regions"],
    )
    for tid, trace in enumerate(program.traces):
        table.add_row(
            tid,
            len(trace),
            trace.num_accesses(),
            trace.num_writes(),
            trace.num_sync_ops(),
            trace.num_regions(),
        )
    return table


def inspect_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro inspect")
    add_target_args(parser, nargs="?")
    parser.add_argument("--list", action="store_true", help="list workloads")
    parser.add_argument("--line-size", type=int, default=64)
    args = parser.parse_args(argv)

    if args.list or not args.target:
        for name in registered_workloads():
            print(name)
        return 0

    program = program_from_args(args)
    validate_program(program, args.line_size)
    for table in (
        characteristics_table(program, args.line_size),
        region_histogram(program),
        per_thread_table(program),
    ):
        print(table.render())
        print()
    return 0


# --------------------------------------------------------------------------
# dump
# --------------------------------------------------------------------------


def format_event(index, region, kind, addr, size, sync_id, gap) -> str:
    name = KIND_NAMES[kind]
    if kind in (ACQUIRE, RELEASE, BARRIER):
        detail = f"sync_id={sync_id}"
    else:
        detail = f"addr={addr:#x} size={size}"
    gap_part = f" gap={gap}" if gap else ""
    return f"{index:8d}  r{region:<6d} {name:8s} {detail}{gap_part}"


def dump_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro dump")
    add_target_args(parser)
    parser.add_argument("--thread", type=int, default=0)
    parser.add_argument("--offset", type=int, default=0)
    parser.add_argument("--limit", type=int, default=40)
    args = parser.parse_args(argv)

    program = program_from_args(args)
    if not 0 <= args.thread < program.num_threads:
        parser.error(
            f"thread {args.thread} out of range (program has "
            f"{program.num_threads} threads)"
        )
    trace = program.traces[args.thread]
    regions = region_ids(trace)
    end = min(len(trace), args.offset + args.limit)
    print(
        f"{program.name} thread {args.thread}: events "
        f"[{args.offset}, {end}) of {len(trace)}"
    )
    for i in range(args.offset, end):
        print(
            format_event(
                i,
                int(regions[i]),
                int(trace.kinds[i]),
                int(trace.addrs[i]),
                int(trace.sizes[i]),
                int(trace.sync_ids[i]),
                int(trace.gaps[i]),
            )
        )
    return 0


# --------------------------------------------------------------------------
# conflicts
# --------------------------------------------------------------------------


@dataclass
class LineSummary:
    """All conflicts observed on one cache line."""

    line: int
    count: int = 0
    kinds: Counter = field(default_factory=Counter)
    detectors: Counter = field(default_factory=Counter)
    cores: set[int] = field(default_factory=set)
    byte_mask: int = 0
    first_cycle: int | None = None

    def add(self, record: ConflictRecord) -> None:
        self.count += 1
        self.kinds[record.kind()] += 1
        self.detectors[record.detected_by] += 1
        self.cores.add(record.first_core)
        self.cores.add(record.second_core)
        self.byte_mask |= record.byte_mask
        if self.first_cycle is None or record.cycle < self.first_cycle:
            self.first_cycle = record.cycle


def summarize(conflicts: list[ConflictRecord]) -> dict[int, LineSummary]:
    """Group conflicts by line."""
    by_line: dict[int, LineSummary] = {}
    for record in conflicts:
        summary = by_line.get(record.line_addr)
        if summary is None:
            summary = LineSummary(line=record.line_addr)
            by_line[record.line_addr] = summary
        summary.add(record)
    return by_line


def summary_table(conflicts: list[ConflictRecord]) -> TextTable:
    """Render the per-line conflict report."""
    table = TextTable(
        "Region conflicts by line",
        ["line", "conflicts", "kinds", "cores", "bytes", "first cycle", "via"],
    )
    by_line = summarize(conflicts)
    for line in sorted(by_line):
        s = by_line[line]
        table.add_row(
            f"{line:#x}",
            s.count,
            ",".join(f"{k}:{n}" for k, n in sorted(s.kinds.items())),
            len(s.cores),
            s.byte_mask.bit_count(),
            s.first_cycle if s.first_cycle is not None else -1,
            ",".join(sorted(s.detectors)),
        )
    return table


def kind_mix(conflicts: list[ConflictRecord]) -> dict[str, int]:
    """Counts of W-W / R-W / W-R conflicts."""
    return dict(Counter(record.kind() for record in conflicts))


def conflicts_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro conflicts")
    add_target_args(parser)
    parser.add_argument(
        "--protocol", choices=("ce", "ce+", "arc"), default="arc"
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print every conflict record"
    )
    args = parser.parse_args(argv)

    program = program_from_args(args)
    cfg = SystemConfig(
        num_cores=pow2_cores(program.num_threads), protocol=args.protocol
    )
    result = run_program(cfg, program)
    conflicts = result.stats.conflicts

    print(
        f"{program.name} under {args.protocol}: {len(conflicts)} region "
        f"conflict exception(s) in {result.cycles:,} cycles"
    )
    if not conflicts:
        return 0
    mix = kind_mix(conflicts)
    print("kind mix: " + ", ".join(f"{k}={n}" for k, n in sorted(mix.items())))
    print()
    print(summary_table(conflicts).render())
    if args.verbose:
        print()
        for record in conflicts:
            print(
                f"  cycle {record.cycle:>10,}: {record.kind()} on "
                f"{record.line_addr:#x} bytes {record.byte_mask:#x} "
                f"core {record.first_core} r{record.first_region} vs "
                f"core {record.second_core} r{record.second_region} "
                f"({record.detected_by})"
            )
    return 0


# --------------------------------------------------------------------------
# heatmap
# --------------------------------------------------------------------------

#: shading ramp, light to heavy
_SHADES = " .:-=+*#%@"


class _CountingNetwork(MeshNetwork):
    """MeshNetwork that additionally accumulates lifetime per-link flits."""

    def __init__(self, topology: MeshTopology, cfg):
        super().__init__(topology, cfg)
        self.lifetime_link_flits = np.zeros(topology.num_links)

    def send(self, src, dst, payload_bytes, category, cycle):
        if src != dst:
            from ..noc.messages import flits_for_payload

            flits = flits_for_payload(payload_bytes, self.cfg.flit_bytes)
            for link in self.topology.route(src, dst):
                self.lifetime_link_flits[link] += flits
        return super().send(src, dst, payload_bytes, category, cycle)


def shade(value: float, peak: float) -> str:
    if peak <= 0:
        return _SHADES[0]
    index = min(int(value / peak * (len(_SHADES) - 1)), len(_SHADES) - 1)
    return _SHADES[index]


def render_heatmap(topology: MeshTopology, link_flits: np.ndarray) -> str:
    """Draw the mesh: tiles as [id], links shaded by traffic.

    Horizontal/vertical neighbours' two directed links are combined.
    """
    peak = float(link_flits.max()) if len(link_flits) else 0.0

    def combined(a: int, b: int) -> float:
        total = 0.0
        for src, dst in ((a, b), (b, a)):
            route = topology.route(src, dst)
            if len(route) == 1:
                total += float(link_flits[route[0]])
        return total

    lines = []
    width, height = topology.width, topology.height
    for y in range(height):
        row = []
        for x in range(width):
            tile = y * width + x
            row.append(f"[{tile:2d}]")
            if x + 1 < width:
                row.append(shade(combined(tile, tile + 1), peak) * 3)
        lines.append("".join(row))
        if y + 1 < height:
            vertical = []
            for x in range(width):
                tile = y * width + x
                vertical.append(
                    " " + shade(combined(tile, tile + width), peak) + "  "
                )
                if x + 1 < width:
                    vertical.append("   ")
            lines.append("".join(vertical))
    legend = f"shade ramp '{_SHADES}' spans 0 .. {peak:,.0f} flits/link"
    return "\n".join(lines + [legend])


def heatmap_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro heatmap")
    add_target_args(parser, threads=16)
    parser.add_argument(
        "--protocol", choices=("mesi", "ce", "ce+", "arc"), default="mesi"
    )
    args = parser.parse_args(argv)

    program = program_from_args(args)
    cfg = SystemConfig(
        num_cores=pow2_cores(program.num_threads), protocol=args.protocol
    )
    sim = Simulator(cfg, program)
    # swap in the counting network before any traffic flows
    counting = _CountingNetwork(sim.machine.topology, cfg.noc)
    sim.machine.net = counting
    sim.protocol.machine = sim.machine
    result = sim.run()

    print(
        f"{program.name} under {args.protocol}: {result.flit_hops:,} flit-hops "
        f"in {result.cycles:,} cycles on a "
        f"{cfg.mesh_width}x{cfg.mesh_height} mesh"
    )
    print()
    print(render_heatmap(sim.machine.topology, counting.lifetime_link_flits))
    return 0


# --------------------------------------------------------------------------
# wsprofile
# --------------------------------------------------------------------------

DEFAULT_SIZES_KB = (4, 8, 16, 32, 64, 128, 256)


def merged_accesses(program: Program, line_size: int = 64):
    """Per-thread access streams as line addresses (round-robin merge
    order is irrelevant for per-thread private caches)."""
    for trace in program.traces:
        mask = trace.kinds <= WRITE
        yield (trace.addrs[mask] // line_size * line_size).tolist()


def miss_rate(program: Program, size_kb: int, assoc: int = 8) -> float:
    """Aggregate private-cache miss rate at one capacity.

    Each thread replays through its own cache (private hierarchy model).
    """
    cfg = CacheConfig(size=size_kb * 1024, assoc=assoc)
    total = misses = 0
    for stream in merged_accesses(program, cfg.line_size):
        cache = SetAssocCache.from_config(cfg)
        for line in stream:
            total += 1
            if cache.get(line) is None:
                misses += 1
                cache.insert(line, True)
    return misses / total if total else 0.0


def profile_table(
    program: Program, sizes_kb=DEFAULT_SIZES_KB, assoc: int = 8
) -> TextTable:
    table = TextTable(
        f"Working-set profile: {program.name}",
        ["cache size", "miss rate"],
    )
    for size_kb in sizes_kb:
        table.add_row(f"{size_kb}KB", miss_rate(program, size_kb, assoc))
    return table


def wsprofile_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro wsprofile")
    add_target_args(parser)
    parser.add_argument("--assoc", type=int, default=8)
    parser.add_argument(
        "--sizes", default=None,
        help="comma-separated cache sizes in KB (default 4..256)",
    )
    args = parser.parse_args(argv)

    program = program_from_args(args)
    sizes = (
        tuple(int(s) for s in args.sizes.split(","))
        if args.sizes
        else DEFAULT_SIZES_KB
    )
    print(profile_table(program, sizes, args.assoc).render())
    return 0
