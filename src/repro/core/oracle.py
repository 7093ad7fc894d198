"""Schedule recording and the ground-truth region conflict oracles.

When a :class:`~repro.core.simulator.Simulator` is created with
``recorder=ScheduleRecorder()``, the engine logs every data access
(core, issue cycle, region index, line, byte mask, kind) and every
region boundary (core, cycle).  The log captures *what actually
happened in this run's schedule*, independent of how the protocol under
test detects conflicts.

From that log the oracles compute — by brute force, with no protocol
machinery — which region pairs conflicted under two definitions:

* :func:`overlap_conflicts` — **region-overlap** semantics: two accesses
  to overlapping bytes, at least one a write, whose regions' time
  intervals intersect.  This is the semantics ARC enforces; every pair
  it returns is a genuine data race.

* :func:`ce_conflicts` — **CE (ISCA 2010)** semantics: additionally the
  later access must execute *while the earlier access's region is still
  open* (``t2 < end(r1)``).  This is strictly a subset of the overlap
  definition.

The verification property the test suite checks on recorded runs:

    ce_conflicts  ⊆  detector's reports  ⊆  overlap_conflicts      (ARC)
    detector's reports  ⊆  overlap_conflicts                        (CE, CE+)
    overlap_conflicts == ∅  ⇒  no detector reports anything

(CE's own reports can be a proper subset of ``ce_conflicts`` only by
scheduling skew of a few cycles; on programs with clean timing they
match.)

The module imports nothing from the engine, so the static analyzer and
the model checker key their conflicts with it without loading the
simulator.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..common.config import ProtocolKind


@dataclass(frozen=True)
class RecordedAccess:
    core: int
    cycle: int
    region: int
    line: int
    mask: int
    is_write: bool


@dataclass
class RegionInterval:
    """One region's lifetime: [start, end); end is None while open."""

    core: int
    region: int
    start: int
    end: int | None = None

    def overlaps(self, other: "RegionInterval") -> bool:
        """Closed-open interval overlap; open regions extend to +inf."""
        self_end = self.end if self.end is not None else float("inf")
        other_end = other.end if other.end is not None else float("inf")
        return self.start < other_end and other.start < self_end


@dataclass
class ScheduleRecorder:
    """Collects one run's accesses and region intervals."""

    accesses: list[RecordedAccess] = field(default_factory=list)
    _intervals: dict[tuple[int, int], RegionInterval] = field(default_factory=dict)

    def record_access(
        self, core: int, cycle: int, region: int, line: int, mask: int, is_write: bool
    ) -> None:
        self.accesses.append(
            RecordedAccess(core, cycle, region, line, mask, is_write)
        )
        key = (core, region)
        if key not in self._intervals:
            # region started no later than its first recorded access
            self._intervals[key] = RegionInterval(core, region, start=0)

    def record_region_start(self, core: int, region: int, cycle: int) -> None:
        self._intervals.setdefault(
            (core, region), RegionInterval(core, region, start=cycle)
        ).start = cycle

    def record_region_end(self, core: int, region: int, cycle: int) -> None:
        interval = self._intervals.setdefault(
            (core, region), RegionInterval(core, region, start=0)
        )
        interval.end = cycle

    def interval(self, core: int, region: int) -> RegionInterval:
        """The recorded interval (regions never entered default to empty)."""
        return self._intervals.get(
            (core, region), RegionInterval(core, region, start=0)
        )

    def intervals(self) -> list[RegionInterval]:
        return list(self._intervals.values())


#: a conflicting region pair, normalized: (line, coreA, regionA, coreB, regionB)
#: with (coreA, regionA) < (coreB, regionB)
ConflictKey = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class OracleConflict:
    line: int
    first_core: int
    first_region: int
    second_core: int
    second_region: int
    byte_mask: int

    @property
    def key(self) -> ConflictKey:
        return (
            self.line,
            self.first_core,
            self.first_region,
            self.second_core,
            self.second_region,
        )


def _conflicting_bytes(a: RecordedAccess, b: RecordedAccess) -> int:
    if not (a.is_write or b.is_write):
        return 0
    return a.mask & b.mask


def _pairs_by_line(recorder: ScheduleRecorder):
    by_line: dict[int, list[RecordedAccess]] = defaultdict(list)
    for access in recorder.accesses:
        by_line[access.line].append(access)
    return by_line


def _normalize(
    line: int, a: RecordedAccess, b: RecordedAccess, mask: int
) -> OracleConflict:
    first, second = ((a, b) if (a.core, a.region) <= (b.core, b.region) else (b, a))
    return OracleConflict(
        line=line,
        first_core=first.core,
        first_region=first.region,
        second_core=second.core,
        second_region=second.region,
        byte_mask=mask,
    )


def overlap_conflicts(recorder: ScheduleRecorder) -> dict[ConflictKey, OracleConflict]:
    """All conflicting region pairs under region-overlap semantics."""
    found: dict[ConflictKey, OracleConflict] = {}
    for line, accesses in _pairs_by_line(recorder).items():
        for i, a in enumerate(accesses):
            interval_a = recorder.interval(a.core, a.region)
            for b in accesses[i + 1:]:
                if a.core == b.core:
                    continue
                mask = _conflicting_bytes(a, b)
                if not mask:
                    continue
                if not interval_a.overlaps(recorder.interval(b.core, b.region)):
                    continue
                conflict = _normalize(line, a, b, mask)
                existing = found.get(conflict.key)
                if existing is None:
                    found[conflict.key] = conflict
                else:
                    found[conflict.key] = OracleConflict(
                        **{**existing.__dict__, "byte_mask": existing.byte_mask | mask}
                    )
    return found


def ce_conflicts(
    recorder: ScheduleRecorder, margin: int = 0
) -> dict[ConflictKey, OracleConflict]:
    """Conflicting pairs under CE's second-access-during-first-region rule.

    ``margin`` excludes *boundary-epsilon* pairs: the engine serializes
    events, so a region end and a conflicting access whose nominal
    clocks land within a few tens of cycles of each other may execute in
    either order — the protocols legitimately resolve such photo-finish
    pairs as non-overlapping while the recorded timestamps say otherwise
    by a hair.  Soundness properties should pass a margin of roughly
    ``2 * SYNC_OP_CYCLES``; the default of 0 is the exact textbook
    definition.
    """
    found: dict[ConflictKey, OracleConflict] = {}
    for line, accesses in _pairs_by_line(recorder).items():
        for i, a in enumerate(accesses):
            for b in accesses[i + 1:]:
                if a.core == b.core:
                    continue
                mask = _conflicting_bytes(a, b)
                if not mask:
                    continue
                earlier, later = (a, b) if a.cycle <= b.cycle else (b, a)
                earlier_end = recorder.interval(earlier.core, earlier.region).end
                if earlier_end is not None and later.cycle >= earlier_end - margin:
                    continue  # earlier region closed (or photo finish)
                conflict = _normalize(line, a, b, mask)
                found.setdefault(conflict.key, conflict)
    return found


def expected_conflicts(
    recorder: ScheduleRecorder, protocol
) -> tuple[set[ConflictKey], set[ConflictKey]]:
    """``(must_detect, may_detect)`` bounds for one exact schedule.

    This is the model checker's per-interleaving ground truth, usable
    whenever recorded timing is exact (the checker assigns cycles by
    global step index, so there is no photo-finish skew and no margin).
    Every key in ``must_detect`` that goes unreported is a completeness
    violation; every reported key outside ``may_detect`` is a soundness
    violation.

    * MESI detects nothing: both bounds empty.
    * CE / CE+ detect *exactly* the second-access-during-first-region
      subset — eager checks fire at the moment of the second access
      (coherence action, home metadata check, or the in-cache remote
      bits on a silent hit), so the bounds coincide.
    * ARC is lazy: it must catch everything CE would (registration and
      delta flushes are checked no later than region end / finalize)
      and may additionally report any region-overlap conflict, but
      cannot promise *all* of them — a line written privately in a
      region that ends before the second core's first touch loses its
      masks by design (private lines never register), and such pairs
      are region-serializable anyway.  docs/MODELCHECK.md shows the
      three-step counterexample.
    """
    kind = ProtocolKind(protocol) if not isinstance(protocol, ProtocolKind) else protocol
    if kind is ProtocolKind.MESI:
        return set(), set()
    if kind is ProtocolKind.ARC:
        return set(ce_conflicts(recorder)), set(overlap_conflicts(recorder))
    exact = set(ce_conflicts(recorder))
    return exact, exact


def detected_keys(conflicts) -> set[ConflictKey]:
    """Normalize a detector's ConflictRecords to oracle keys."""
    keys: set[ConflictKey] = set()
    for record in conflicts:
        a = (record.first_core, record.first_region)
        b = (record.second_core, record.second_region)
        first, second = (a, b) if a <= b else (b, a)
        keys.add((record.line_addr, first[0], first[1], second[0], second[1]))
    return keys
