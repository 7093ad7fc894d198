"""Lift byte-level HB races to SFR region-pair conflicts.

The output is keyed exactly like the run-time oracle
(:mod:`repro.core.oracle`) and the detectors' conflict records:
``(line, first_core, first_region, second_core, second_region)`` with
``(first_core, first_region) <= (second_core, second_region)`` — so the
three sources are directly set-comparable.  The containment invariants
the test suite enforces:

* ``overlap_conflicts(recorder)``  ⊆  :func:`region_conflicts` keys, for
  every recorded run (schedule-free predictions cover every schedule);
* every detector's reported keys   ⊆  :func:`region_conflicts` keys;
* a race-free program (all sharing barrier-ordered, lock-protected,
  read-only or byte-disjoint) yields **no** conflicts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.oracle import ConflictKey
from ..trace.program import Program
from .hb import HbIndex, iter_access_races

__all__ = [
    "RegionConflict",
    "region_conflicts",
    "conflict_lines",
    "thread_pairs",
]


@dataclass(frozen=True)
class RegionConflict:
    """One predicted region-pair conflict (mirror of
    :class:`repro.core.oracle.OracleConflict`)."""

    line: int
    first_core: int
    first_region: int
    second_core: int
    second_region: int
    byte_mask: int
    #: races where the earlier-keyed side wrote / the later side wrote
    first_writes: bool
    second_writes: bool

    @property
    def key(self) -> ConflictKey:
        return (
            self.line,
            self.first_core,
            self.first_region,
            self.second_core,
            self.second_region,
        )

    def kind(self) -> str:
        if self.first_writes and self.second_writes:
            return "ww"
        return "rw" if self.second_writes else "wr"


def region_conflicts(
    program: Program, hb: HbIndex | None = None, line_size: int = 64
) -> dict[ConflictKey, RegionConflict]:
    """All region pairs containing at least one racy access pair.

    Byte masks of all races between the two regions are OR-merged, the
    way the oracle merges masks for a region pair.
    """
    found: dict[ConflictKey, RegionConflict] = {}
    for race in iter_access_races(program, hb, line_size):
        key = (
            race.line,
            race.first_thread,
            race.first_region,
            race.second_thread,
            race.second_region,
        )
        existing = found.get(key)
        if existing is None:
            found[key] = RegionConflict(
                line=race.line,
                first_core=race.first_thread,
                first_region=race.first_region,
                second_core=race.second_thread,
                second_region=race.second_region,
                byte_mask=race.byte_mask,
                first_writes=race.first_is_write,
                second_writes=race.second_is_write,
            )
        else:
            found[key] = RegionConflict(
                line=existing.line,
                first_core=existing.first_core,
                first_region=existing.first_region,
                second_core=existing.second_core,
                second_region=existing.second_region,
                byte_mask=existing.byte_mask | race.byte_mask,
                first_writes=existing.first_writes or race.first_is_write,
                second_writes=existing.second_writes or race.second_is_write,
            )
    return found


def conflict_lines(conflicts) -> set[int]:
    """Distinct line addresses in a conflict set (oracle dicts, detector
    record lists and :func:`region_conflicts` results all accepted)."""
    if isinstance(conflicts, dict):
        conflicts = conflicts.values()
    lines: set[int] = set()
    for item in conflicts:
        if hasattr(item, "line"):
            lines.add(item.line)
        else:  # a detector ConflictRecord
            lines.add(item.line_addr)
    return lines


def thread_pairs(conflicts: dict[ConflictKey, RegionConflict]) -> set[tuple[int, int]]:
    """Distinct unordered (thread, thread) pairs in a conflict set."""
    return {(c.first_core, c.second_core) for c in conflicts.values()}
