"""Pair verdicts, static line classes, and report rendering.

Consumes the :class:`~repro.statics.interp.StaticAnalysis` IR and
produces the three analyzer outputs:

* every cross-thread (site, site) pair on a shared object classified as
  NO-CONFLICT (with the proof: disjoint footprint / both-read / common
  lock / barrier-ordered), MAY-CONFLICT, or MUST-CONFLICT;
* every statically known cache line classified PRIVATE(t) / RO_SHARED /
  CONTENDED, exportable as a :class:`~repro.core.batch.LineClassification`
  hint (the perf tie-in — validated against the exact classifier at
  runtime);
* a soundness surface: :meth:`StaticReport.covers` answers "could the
  analyzer have missed this dynamic conflict?", which the containment
  suite asserts is never true, and :func:`diff_dynamic` splits a
  static/dynamic disagreement into *soundness* violations (static
  missed a real conflict — always a bug) and *precision* losses (static
  flagged what the schedule never produced — expected for data-dependent
  indices).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..core.batch import CONTENDED, RO_SHARED, LineClassification
from .intervals import Interval, affine_render
from .interp import StaticAnalysis
from .lockset import common_lock
from .model import (
    MAY_CONFLICT,
    MUST_CONFLICT,
    REASON_DISJOINT,
    REASON_LOCK,
    REASON_PHASE,
    REASON_READ_ONLY,
    AccessSite,
    SharedObject,
)


@dataclass
class StaticPair:
    """Strongest verdict between one thread pair on one object."""

    obj: SharedObject
    tid_a: int
    tid_b: int
    verdict: str  # MAY_CONFLICT | MUST_CONFLICT
    overlap: Interval  # element hull of every conflicting footprint
    lines: set[int] = field(default_factory=set)  # conflicting cache lines
    site_lines: set[tuple[int, int]] = field(default_factory=set)
    has_write_write: bool = False

    def to_dict(self) -> dict:
        return {
            "object": self.obj.name or f"obj{self.obj.oid}",
            "verdict": self.verdict,
            "tids": [self.tid_a, self.tid_b],
            "elements": repr(self.overlap),
            "lines": [hex(line) for line in sorted(self.lines)],
            "source_lines": sorted(self.site_lines),
            "write_write": self.has_write_write,
        }


@dataclass
class StaticReport:
    analysis: StaticAnalysis
    pairs: list[StaticPair]
    suppressed: dict[str, int]  # NO-CONFLICT proofs by reason
    line_codes: Optional[dict[int, int]]  # line addr -> batch-style code

    # ------------------------------------------------------------------

    @property
    def verdict(self) -> str:
        if any(p.verdict == MUST_CONFLICT for p in self.pairs):
            return MUST_CONFLICT
        if self.pairs:
            return MAY_CONFLICT
        return "no-conflict"

    def may_conflict_lines(self) -> set[int]:
        out: set[int] = set()
        for pair in self.pairs:
            out.update(pair.lines)
        return out

    def covers(self, line: int, tid_a: int, tid_b: int) -> bool:
        """Could this dynamic conflict be one the analyzer predicted?

        True when some MAY/MUST pair between the two threads spans the
        line — or when the analyzer lost address knowledge, in which
        case it cannot refute anything and must answer "maybe"."""
        if self.line_codes is None:
            return True
        lo, hi = min(tid_a, tid_b), max(tid_a, tid_b)
        for pair in self.pairs:
            if (pair.tid_a, pair.tid_b) == (lo, hi) and line in pair.lines:
                return True
        return False

    def line_hint(self) -> Optional[LineClassification]:
        """The static line classification, for
        :func:`repro.core.batch.check_static_hint` (None when the
        mirrored layout could not be trusted)."""
        if self.line_codes is None:
            return None
        line_arr = np.array(sorted(self.line_codes), dtype=np.uint64)
        codes = np.array(
            [self.line_codes[int(line)] for line in line_arr], dtype=np.int64
        )
        return LineClassification(line_arr, codes)

    def line_class_counts(self) -> dict[str, int]:
        counts = {"private": 0, "ro_shared": 0, "contended": 0}
        for code in (self.line_codes or {}).values():
            if code >= 0:
                counts["private"] += 1
            elif code == RO_SHARED:
                counts["ro_shared"] += 1
            else:
                counts["contended"] += 1
        return counts

    # -- rendering ------------------------------------------------------

    def access_summaries(self) -> list[str]:
        """Per (object, source line, kind): the tid-affine index slices."""
        grouped: dict[tuple[int, int, bool], dict[int, Interval]] = {}
        for site in self.analysis.sites:
            key = (site.oid, site.source_line, site.is_write)
            per_tid = grouped.setdefault(key, {})
            prev = per_tid.get(site.tid)
            per_tid[site.tid] = (
                site.index if prev is None else prev.hull(site.index)
            )
        out = []
        for (oid, src, is_write), per_tid in sorted(grouped.items()):
            obj = self.analysis.object_by_id(oid)
            kind = "write" if is_write else "read"
            out.append(
                f"{obj.name or f'obj{oid}'}[{affine_render(per_tid)}] "
                f"{kind} @L{src}"
            )
        return out

    def to_dict(self) -> dict:
        a = self.analysis
        return {
            "target": a.target,
            "params": {
                "num_threads": a.num_threads,
                "seed": a.seed,
                "scale": a.scale,
            },
            "verdict": self.verdict,
            "objects": [
                {
                    "name": obj.name or f"obj{obj.oid}",
                    "kind": obj.kind,
                    "elements": obj.length,
                    "element_size": obj.element_size,
                    "base": hex(obj.base) if obj.base is not None else None,
                    "fields": list(obj.fields) if obj.fields else None,
                    "tainted": obj.tainted,
                }
                for obj in a.objects
            ],
            "accesses": self.access_summaries(),
            "pairs": [p.to_dict() for p in self.pairs],
            "suppressed": dict(self.suppressed),
            "line_classes": self.line_class_counts()
            if self.line_codes is not None
            else None,
            "may_conflict_lines": [
                hex(line) for line in sorted(self.may_conflict_lines())
            ],
            "phase_partitioning": {
                "valid": a.phases.valid,
                "reasons": list(a.phases.reasons),
            },
            "layout": {"valid": a.layout.valid, "notes": list(a.layout.notes)},
            "notes": list(a.notes),
        }

    def render_text(self) -> str:
        a = self.analysis
        lines = [
            f"static conflict report: {a.target} "
            f"(threads={a.num_threads} seed={a.seed} scale={a.scale:g})",
            f"  verdict: {self.verdict.upper()}",
        ]
        lines.append("  objects:")
        for obj in a.objects:
            base = f"@ {obj.base:#x}" if obj.base is not None else "@ ?"
            taint = "  [tainted]" if obj.tainted else ""
            lines.append(
                f"    {obj.name or f'obj{obj.oid}':<12} {obj.kind:<6} "
                f"{obj.length}x{obj.element_size}B {base}{taint}"
            )
        lines.append("  accesses:")
        for summary in self.access_summaries():
            lines.append(f"    {summary}")
        if self.line_codes is not None:
            counts = self.line_class_counts()
            lines.append(
                f"  line classes: {len(self.line_codes)} lines — "
                f"{counts['private']} private, {counts['ro_shared']} "
                f"ro-shared, {counts['contended']} contended"
            )
        else:
            lines.append("  line classes: unavailable (layout not mirrored)")
        sup = ", ".join(
            f"{count} {reason}"
            for reason, count in sorted(self.suppressed.items())
            if count
        )
        lines.append(
            f"  pairs: "
            f"{sum(1 for p in self.pairs if p.verdict == MAY_CONFLICT)} "
            f"may-conflict, "
            f"{sum(1 for p in self.pairs if p.verdict == MUST_CONFLICT)} "
            f"must-conflict (no-conflict proofs: {sup or 'none'})"
        )
        for pair in self.pairs:
            sites = ", ".join(
                f"L{x}/L{y}" for x, y in sorted(pair.site_lines)[:4]
            )
            lines.append(
                f"    {pair.verdict.upper():<13} "
                f"{pair.obj.name or f'obj{pair.obj.oid}'} "
                f"tid{pair.tid_a} vs tid{pair.tid_b} "
                f"elements {pair.overlap!r} ({sites})"
            )
        if not a.phases.valid:
            lines.append(
                "  phases: not usable — " + "; ".join(a.phases.reasons)
            )
        for note in a.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def build_report(analysis: StaticAnalysis) -> StaticReport:
    """Classify all cross-thread pairs and lines of one analysis."""
    by_obj: dict[int, dict[int, list[AccessSite]]] = {}
    for site in analysis.sites:
        by_obj.setdefault(site.oid, {}).setdefault(site.tid, []).append(site)

    suppressed = {
        REASON_DISJOINT: 0,
        REASON_READ_ONLY: 0,
        REASON_LOCK: 0,
        REASON_PHASE: 0,
    }
    pair_map: dict[tuple[int, int, int], StaticPair] = {}
    layout_ok = analysis.layout.valid and len(analysis.sessions) == 1

    for oid, per_tid in sorted(by_obj.items()):
        obj = analysis.object_by_id(oid)
        tids = sorted(per_tid)
        for i, ta in enumerate(tids):
            for tb in tids[i + 1 :]:
                for sa in per_tid[ta]:
                    for sb in per_tid[tb]:
                        _classify_pair(
                            analysis, obj, sa, sb, pair_map, suppressed,
                            layout_ok,
                        )

    pairs = sorted(
        pair_map.values(),
        key=lambda p: (p.verdict != MUST_CONFLICT, p.obj.oid, p.tid_a, p.tid_b),
    )
    line_codes = _classify_lines(analysis) if layout_ok else None
    return StaticReport(
        analysis=analysis,
        pairs=pairs,
        suppressed=suppressed,
        line_codes=line_codes,
    )


def _classify_pair(
    analysis: StaticAnalysis,
    obj: SharedObject,
    sa: AccessSite,
    sb: AccessSite,
    pair_map: dict,
    suppressed: dict,
    layout_ok: bool,
) -> None:
    if not (sa.is_write or sb.is_write):
        suppressed[REASON_READ_ONLY] += 1
        return
    overlap = sa.index.intersect(sb.index)
    if overlap is None:
        suppressed[REASON_DISJOINT] += 1
        return
    if analysis.phases.ordered(sa.phase, sb.phase):
        suppressed[REASON_PHASE] += 1
        return
    if common_lock(sa.locks, sb.locks):
        suppressed[REASON_LOCK] += 1
        return
    must = (
        sa.definite
        and sb.definite
        and sa.index.is_point
        and sb.index.is_point
        and not obj.tainted
        # with phase tracking poisoned the sites might be barrier-ordered
        # in ways we could not prove, so "definitely conflicts" is out
        and analysis.phases.valid
        # ambiguously-held locks could resolve to a common lock at
        # runtime, so they demote a would-be MUST to MAY
        and not (sa.ambiguous_lock or sb.ambiguous_lock)
    )
    verdict = MUST_CONFLICT if must else MAY_CONFLICT
    key = (obj.oid, sa.tid, sb.tid)
    pair = pair_map.get(key)
    if pair is None:
        pair = StaticPair(
            obj=obj,
            tid_a=sa.tid,
            tid_b=sb.tid,
            verdict=verdict,
            overlap=overlap,
        )
        pair_map[key] = pair
    else:
        pair.overlap = pair.overlap.hull(overlap)
        if verdict == MUST_CONFLICT:
            pair.verdict = MUST_CONFLICT
    pair.site_lines.add((sa.source_line, sb.source_line))
    pair.has_write_write = pair.has_write_write or (
        sa.is_write and sb.is_write
    )
    if layout_ok and obj.base is not None:
        lo = 0 if overlap.lo is None else overlap.lo
        hi = obj.length - 1 if overlap.hi is None else overlap.hi
        first = (obj.base + lo * obj.element_size) // analysis.line_size
        last = (
            obj.base + hi * obj.element_size + obj.element_size - 1
        ) // analysis.line_size
        for line in range(first, last + 1):
            pair.lines.add(line * analysis.line_size)


def _classify_lines(analysis: StaticAnalysis) -> dict[int, int]:
    """Element-accurate static line classes over the mirrored layout.

    Mirrors ``classify_program``'s rule — single toucher => PRIVATE(t),
    multi-toucher never written => RO_SHARED, else CONTENDED — over the
    *static* footprints, which over-approximate the dynamic ones, so
    every class can only move up the lattice, never down."""
    line_size = analysis.line_size
    touchers: dict[int, set[int]] = {}
    written: set[int] = set()
    for site in analysis.sites:
        obj = analysis.object_by_id(site.oid)
        if obj.base is None:
            continue
        lo = 0 if site.index.lo is None else site.index.lo
        hi = obj.length - 1 if site.index.hi is None else site.index.hi
        first = (obj.base + lo * obj.element_size) // line_size
        last = (
            obj.base + hi * obj.element_size + obj.element_size - 1
        ) // line_size
        for line_no in range(first, last + 1):
            line = line_no * line_size
            touchers.setdefault(line, set()).add(site.tid)
            if site.is_write:
                written.add(line)
    codes: dict[int, int] = {}
    for line, tids in touchers.items():
        if len(tids) == 1:
            codes[line] = next(iter(tids))
        elif line in written:
            codes[line] = CONTENDED
        else:
            codes[line] = RO_SHARED
    return codes


def diff_dynamic(
    report: StaticReport, program: Any, line_size: int = 64
) -> dict:
    """Compare the static report with the dynamic HB analysis of an
    actual capture of the same workload.

    Returns ``{"soundness": [...], "precision": [...], "agreed": [...]}``:
    a *soundness* entry is a dynamic conflict the static analyzer failed
    to cover (always an analyzer bug); a *precision* entry is a static
    MAY-CONFLICT line no dynamic conflict touched (expected — e.g.
    data-dependent indices widen to whole objects).
    """
    from ..analysis.regions import region_conflicts

    dynamic = region_conflicts(program, line_size=line_size)
    soundness = []
    agreed = []
    dynamic_lines: dict[tuple[int, int], set[int]] = {}
    for conflict in dynamic.values():
        lo = min(conflict.first_core, conflict.second_core)
        hi = max(conflict.first_core, conflict.second_core)
        dynamic_lines.setdefault((lo, hi), set()).add(conflict.line)
        entry = {
            "line": hex(conflict.line),
            "tids": [lo, hi],
            "kind": conflict.kind(),
        }
        if report.covers(conflict.line, lo, hi):
            if entry not in agreed:
                agreed.append(entry)
        elif entry not in soundness:
            soundness.append(entry)
    precision = []
    for pair in report.pairs:
        seen = dynamic_lines.get((pair.tid_a, pair.tid_b), set())
        for line in sorted(pair.lines - seen):
            precision.append(
                {
                    "line": hex(line),
                    "tids": [pair.tid_a, pair.tid_b],
                    "object": pair.obj.name or f"obj{pair.obj.oid}",
                    "verdict": pair.verdict,
                }
            )
    return {"soundness": soundness, "precision": precision, "agreed": agreed}
