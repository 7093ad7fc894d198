"""Rule-based static lint over traces and system configurations.

Every rule has a stable id, a severity and a fix hint, so findings are
machine-consumable (``repro analyze --format json``) and the harness can
gate runs on them (``repro.harness.run --analyze``).  The rules catch
the two classes of problems that waste simulation time:

* traces that will deadlock or mislead the detectors (lock-order
  inversion cycles, barrier misuse, accesses straddling the metadata
  granularity);
* configuration combinations the simulator accepts but silently
  ignores or degrades on (ARC knobs under MESI-family protocols, AIM
  sizing under protocols that never touch it, idle cores).

Severities: ``error`` — the run will fail or its results are
meaningless; ``warning`` — the run works but likely does not measure
what was intended; ``info`` — worth knowing, harmless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.config import AimConfig, ProtocolKind, SystemConfig
from ..trace.events import ACQUIRE, BARRIER, RELEASE, WRITE
from ..trace.program import Program
from .hb import BarrierStallError, build_hb

SEVERITIES = ("info", "warning", "error")


@dataclass(frozen=True)
class Rule:
    """One lint rule's identity and documentation."""

    rule_id: str
    severity: str
    title: str
    hint: str


@dataclass(frozen=True)
class Finding:
    """One lint finding: a rule firing on a subject."""

    rule_id: str
    severity: str
    subject: str
    message: str
    hint: str

    def render(self) -> str:
        return f"[{self.rule_id}:{self.severity}] {self.subject}: {self.message}"


RULES: dict[str, Rule] = {}


def _rule(rule_id: str, severity: str, title: str, hint: str) -> Rule:
    rule = Rule(rule_id, severity, title, hint)
    RULES[rule_id] = rule
    return rule


L101 = _rule(
    "L101", "warning", "lock-order inversion",
    "impose one global acquisition order on these locks",
)
L102 = _rule(
    "L102", "error", "acquire of a lock already held",
    "drop the inner acquire, or use a different lock (self-deadlock)",
)
L103 = _rule(
    "L103", "error", "release of a lock not held",
    "match every release with a preceding acquire on the same thread",
)
L104 = _rule(
    "L104", "error", "trace ends holding locks",
    "release all locks before the thread exits",
)
B201 = _rule(
    "B201", "error", "barrier reached while holding a lock",
    "release locks before the barrier (a holder waiting at a barrier "
    "deadlocks contenders)",
)
B202 = _rule(
    "B202", "error", "unequal barrier episode counts",
    "every participant must arrive at the barrier the same number of times",
)
B203 = _rule(
    "B203", "error", "barrier episodes can never all complete",
    "make all threads pass their shared barriers in the same order",
)
B204 = _rule(
    "B204", "warning", "barrier with a single participant",
    "a one-thread barrier orders nothing; remove it or widen participation",
)
A301 = _rule(
    "A301", "warning", "access straddles the metadata granularity",
    "align shared accesses to the metadata block size, or raise "
    "metadata_bytes — straddling accesses double the spill traffic they cost",
)
C401 = _rule(
    "C401", "warning", "ARC tuning flags ignored by this protocol",
    "arc_lazy_clear / arc_write_through only affect protocol='arc'",
)
C402 = _rule(
    "C402", "info", "AIM configured but never accessed",
    "only CE+ reads the AIM; drop the custom AimConfig or switch protocols",
)
C403 = _rule(
    "C403", "warning", "halt_on_conflict under a non-detecting protocol",
    "MESI never raises region conflict exceptions; use ce/ce+/arc",
)
C404 = _rule(
    "C404", "warning", "use_owned_state ignored by ARC",
    "the Owned state exists only in the MESI family; drop the flag for arc",
)
C405 = _rule(
    "C405", "warning", "directory sizing ignored by ARC",
    "ARC keeps no sharer directory; directory_entries_per_bank has no effect",
)
C406 = _rule(
    "C406", "info", "idle cores",
    "the program leaves cores idle; size num_cores to the thread count "
    "for comparable per-core figures",
)
C407 = _rule(
    "C407", "error", "more threads than cores",
    "the simulator refuses programs with more threads than cores; "
    "raise num_cores or rebuild the workload with fewer threads",
)
CAP501 = _rule(
    "CAP501", "warning", "serialized capture: one lock guards all sharing",
    "every cross-thread line access holds a common lock, so detectors "
    "can never fire; narrow the lock scope or split the lock if the "
    "capture was meant to exercise concurrent sharing",
)
CAP502 = _rule(
    "CAP502", "info", "no cross-thread sharing captured",
    "threads touch disjoint lines; conflict detection is trivially "
    "clean — raise the thread count or shrink per-thread partitions "
    "if sharing was intended",
)
CAP503 = _rule(
    "CAP503", "info", "all shared traffic on a single line",
    "cross-thread sharing collapses onto one cache line (contention "
    "microbenchmark shape); spread shared state across lines for "
    "protocol-realistic traffic",
)


def _finding(rule: Rule, subject: str, message: str) -> Finding:
    return Finding(rule.rule_id, rule.severity, subject, message, rule.hint)


# --------------------------------------------------------------------------
# trace rules
# --------------------------------------------------------------------------


def _lock_discipline(program: Program) -> tuple[list[Finding], dict[tuple[int, int], list[int]]]:
    """Walk each thread's sync events once: discipline findings plus the
    held-before edge set for the lock-order graph.

    Edge ``(a, b)`` means some thread acquired ``b`` while holding
    ``a``; the witness list records the threads."""
    findings: list[Finding] = []
    edges: dict[tuple[int, int], list[int]] = {}
    for tid, trace in enumerate(program.traces):
        held: list[int] = []
        sync = trace.kinds >= ACQUIRE
        kinds = trace.kinds[sync].tolist()
        ids = trace.sync_ids[sync].tolist()
        for kind, sid in zip(kinds, ids):
            if kind == ACQUIRE:
                if sid in held:
                    findings.append(_finding(
                        L102, f"thread {tid}",
                        f"acquire of lock {sid} while already holding it",
                    ))
                for outer in held:
                    if outer != sid:
                        edges.setdefault((outer, sid), []).append(tid)
                held.append(sid)
            elif kind == RELEASE:
                if sid in held:
                    held.remove(sid)
                else:
                    findings.append(_finding(
                        L103, f"thread {tid}", f"release of lock {sid} not held"
                    ))
            elif kind == BARRIER and held:
                findings.append(_finding(
                    B201, f"thread {tid}",
                    f"barrier {sid} reached while holding locks {sorted(held)}",
                ))
        if held:
            findings.append(_finding(
                L104, f"thread {tid}", f"trace ends holding locks {sorted(held)}"
            ))
    return findings, edges


def _lock_order_cycles(edges: dict[tuple[int, int], list[int]]) -> list[Finding]:
    """Cycles in the held-before graph (potential ABBA deadlocks)."""
    graph: dict[int, set[int]] = {}
    for (a, b), _tids in edges.items():
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    findings = []
    seen_cycles: set[frozenset[int]] = set()
    # Iterative DFS with an explicit path to recover the cycle members.
    for root in sorted(graph):
        stack: list[tuple[int, list[int]]] = [(root, [root])]
        visited_from_root: set[int] = set()
        while stack:
            node, path = stack.pop()
            for succ in sorted(graph[node]):
                if succ == root:
                    cycle = frozenset(path)
                    if cycle not in seen_cycles:
                        seen_cycles.add(cycle)
                        threads = sorted({
                            t
                            for i, a in enumerate(path)
                            for t in edges.get((a, path[(i + 1) % len(path)]), [])
                        })
                        findings.append(_finding(
                            L101,
                            "locks " + " -> ".join(str(p) for p in path + [root]),
                            f"acquisition-order cycle between threads {threads}",
                        ))
                elif succ not in path and succ not in visited_from_root:
                    visited_from_root.add(succ)
                    stack.append((succ, path + [succ]))
    return findings


def _barrier_rules(program: Program) -> list[Finding]:
    findings = []
    counts: dict[int, dict[int, int]] = {}
    for tid, trace in enumerate(program.traces):
        mask = trace.kinds == BARRIER
        ids, per = np.unique(trace.sync_ids[mask], return_counts=True)
        for bid, count in zip(ids.tolist(), per.tolist()):
            counts.setdefault(bid, {})[tid] = count
    mismatched = False
    for bid in sorted(counts):
        per_thread = counts[bid]
        if len(per_thread) == 1:
            (tid,) = per_thread
            findings.append(_finding(
                B204, f"barrier {bid}", f"only thread {tid} ever arrives"
            ))
        if len(set(per_thread.values())) > 1:
            mismatched = True
            findings.append(_finding(
                B202, f"barrier {bid}",
                f"episode counts differ across threads: "
                f"{dict(sorted(per_thread.items()))}",
            ))
    if not mismatched and counts:
        # Episode counts agree; the remaining failure mode is ordering
        # (threads passing shared barriers in incompatible orders).
        try:
            build_hb(program)
        except BarrierStallError as stall:
            waits = ", ".join(
                f"thread {t} at barrier {b}"
                for t, b in sorted(stall.stalled.items())
            )
            findings.append(_finding(
                B203, "barriers", f"guaranteed deadlock: {waits}"
            ))
    return findings


def _granularity_rule(program: Program, cfg: SystemConfig) -> list[Finding]:
    granule = cfg.metadata_bytes
    if granule >= cfg.line_size:
        return []
    findings = []
    for tid, trace in enumerate(program.traces):
        access = trace.kinds <= WRITE
        addrs = trace.addrs[access].astype(np.int64)
        sizes = trace.sizes[access].astype(np.int64)
        straddling = (addrs % granule) + sizes > granule
        count = int(np.count_nonzero(straddling))
        if count:
            first = int(np.argmax(straddling))
            findings.append(_finding(
                A301, f"thread {tid}",
                f"{count} access(es) straddle the {granule}B metadata "
                f"granule (first: {addrs[first]:#x}+{sizes[first]})",
            ))
    return findings


# --------------------------------------------------------------------------
# capture-shape rules (CAP5xx)
# --------------------------------------------------------------------------


def _capture_rules(program: Program, line_size: int = 64) -> list[Finding]:
    """Shape checks for runtime-captured programs.

    Gated on the ``capture`` name prefix: synthetic generators build
    sharing patterns on purpose, but a *capture* with degenerate
    sharing usually means the instrumented program (or its scale) does
    not exercise what the capture was for.
    """
    if not program.name.startswith("capture"):
        return []
    shift = np.uint64(line_size.bit_length() - 1)
    mask = ~np.uint64(line_size - 1)
    touched: dict[int, set[int]] = {}
    for tid, trace in enumerate(program.traces):
        access = trace.kinds <= WRITE
        lines = np.unique((trace.addrs[access] >> shift) << shift)
        for line in lines.tolist():
            touched.setdefault(int(line), set()).add(tid)
    shared = {line for line, tids in touched.items() if len(tids) > 1}
    if not shared:
        return [_finding(
            CAP502, program.name,
            f"{len(touched)} line(s) touched, none by more than one thread",
        )]
    findings = []
    if len(shared) == 1:
        (line,) = shared
        findings.append(_finding(
            CAP503, program.name,
            f"the only cross-thread line is {line:#x}, touched by threads "
            f"{sorted(touched[line])}",
        ))
    shared_arr = np.array(sorted(shared), dtype=np.uint64)
    common: set[int] | None = None
    for trace in program.traces:
        kinds = trace.kinds
        lines = trace.addrs & mask
        interesting = (kinds >= ACQUIRE) | (
            (kinds <= WRITE) & np.isin(lines, shared_arr)
        )
        held: set[int] = set()
        for i in np.flatnonzero(interesting).tolist():
            kind = int(kinds[i])
            if kind == ACQUIRE:
                held.add(int(trace.sync_ids[i]))
            elif kind == RELEASE:
                held.discard(int(trace.sync_ids[i]))
            elif kind <= WRITE:
                common = set(held) if common is None else (common & held)
                if not common:
                    return findings
    if common:
        findings.append(_finding(
            CAP501, program.name,
            f"every access to the {len(shared)} shared line(s) holds "
            f"lock(s) {sorted(common)}",
        ))
    return findings


# --------------------------------------------------------------------------
# config rules
# --------------------------------------------------------------------------


def lint_config(cfg: SystemConfig, program: Program | None = None) -> list[Finding]:
    """Config-combination rules (C4xx)."""
    findings = []
    proto = cfg.protocol
    if proto is not ProtocolKind.ARC and (
        not cfg.arc_lazy_clear or cfg.arc_write_through
    ):
        findings.append(_finding(
            C401, "config",
            f"arc_lazy_clear={cfg.arc_lazy_clear}, "
            f"arc_write_through={cfg.arc_write_through} under "
            f"protocol={proto.value!r}",
        ))
    if proto in (ProtocolKind.MESI, ProtocolKind.CE) and cfg.aim != AimConfig():
        findings.append(_finding(
            C402, "config",
            f"custom AIM ({cfg.aim.describe()}) under protocol={proto.value!r}",
        ))
    if cfg.halt_on_conflict and not proto.detects_conflicts:
        findings.append(_finding(
            C403, "config", "halt_on_conflict=True under protocol='mesi'"
        ))
    if proto is ProtocolKind.ARC and cfg.use_owned_state:
        findings.append(_finding(C404, "config", "use_owned_state=True under ARC"))
    if proto is ProtocolKind.ARC and cfg.directory_entries_per_bank is not None:
        findings.append(_finding(
            C405, "config",
            f"directory_entries_per_bank={cfg.directory_entries_per_bank} under ARC",
        ))
    if program is not None:
        if program.num_threads > cfg.num_cores:
            findings.append(_finding(
                C407, "config",
                f"{program.num_threads} threads on {cfg.num_cores} cores",
            ))
        elif program.num_threads < cfg.num_cores:
            findings.append(_finding(
                C406, "config",
                f"{cfg.num_cores - program.num_threads} of {cfg.num_cores} "
                f"cores idle",
            ))
    return findings


def lint_program(
    program: Program, cfg: SystemConfig | None = None
) -> list[Finding]:
    """Run every applicable rule; returns findings sorted by severity
    (errors first), then rule id."""
    findings, edges = _lock_discipline(program)
    findings += _lock_order_cycles(edges)
    findings += _barrier_rules(program)
    findings += _capture_rules(
        program, cfg.line_size if cfg is not None else 64
    )
    if cfg is not None:
        findings += _granularity_rule(program, cfg)
        findings += lint_config(cfg, program)
    findings.sort(key=lambda f: (-SEVERITIES.index(f.severity), f.rule_id, f.subject))
    return findings


def max_severity(findings: list[Finding]) -> str | None:
    """Highest severity present, or None for a clean report."""
    if not findings:
        return None
    return max(findings, key=lambda f: SEVERITIES.index(f.severity)).severity
