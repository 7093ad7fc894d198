"""Conflict-report summarization.

Turns a run's raw :class:`~repro.common.errors.ConflictRecord` list into
the aggregates a developer debugging a racy program wants: per-line
totals, kind mix, detection mechanisms, involved cores, and earliest
detection cycle.  Used by ``repro conflicts`` and the
conflicts-detected table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..common.errors import ConflictRecord
from ..harness.tables import TextTable


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
    mix = Counter(record.kind() for record in conflicts)
    return dict(mix)
