"""The coherence invariant catalogue and the one implementation of each check.

:data:`INVARIANTS` names every invariant.  Each is implemented once, at
the narrowest scope that decides it:

* **line** — ``check(protocol, line)``: SWMR and directory precision
  (one pass over the line's copies), CE metadata liveness and ARC
  classification;
* **core** — ``check(protocol, core, kind)``: one core's obligations,
  where ``kind`` is the event kind of the region boundary the core has
  just executed, or ``None`` if its last step was not a boundary: the
  CE spill log is empty after the boundary (part of CE liveness), and
  ARC's boundary flushes;
* **state** — ``check(run)``: invariants that need the driver's ghost
  state, its lockstep twin or a whole-machine view (state lattice,
  ghost values, AIM geometry, region counts, and refinement: a CE run
  steps as its MESI twin does, a CE+ run as its CE twin does).

Two consumers loop these functions:

* :func:`check_state` — the explorer's whole-state check — runs every
  applicable line check over every line the state mentions, every core
  check over every core, and every state check;
* the sanitizer (:mod:`repro.modelcheck.sanitize`) runs the line checks
  on the line each access touched and the core checks on the core whose
  boundary just ran.

``docs/MODELCHECK.md``'s catalogue lists :data:`INVARIANTS`.
Applicability is duck-typed on protocol structure (``directory`` for
the MESI family, ``meta_table`` for CE/CE+, ``aim`` for CE+,
``owner_table`` for ARC) so the module imports no protocol class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..protocols.arc import SHARED
from ..protocols.base import DIRTY_STATES, E, M, O, S, STATE_NAMES
from ..trace.events import ACQUIRE, BARRIER

if TYPE_CHECKING:
    from .driver import Run


@dataclass(frozen=True)
class Violation:
    """One invariant failure at one reachable state."""

    invariant: str
    message: str
    core: int | None = None
    line: int | None = None

    def render(self) -> str:
        where = []
        if self.core is not None:
            where.append(f"core {self.core}")
        if self.line is not None:
            where.append(f"line {self.line:#x}")
        suffix = f" ({', '.join(where)})" if where else ""
        return f"{self.invariant}: {self.message}{suffix}"


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _holders(protocol, line: int) -> dict[int, object]:
    out = {}
    for core, cache in enumerate(protocol.l1):
        payload = cache.peek(line)
        if payload is not None:
            out[core] = payload
    return out


def _bits(mask: int) -> list[int]:
    return [core for core in range(mask.bit_length()) if mask >> core & 1]


# --------------------------------------------------------------------------
# line-scoped checks: (protocol, line) -> violations
# --------------------------------------------------------------------------


def check_mesi_line(protocol, line: int) -> list[Violation]:
    """SWMR and directory precision on one line, in one pass.

    SWMR: at most one core holds the line in M/E/O; an E/M holder is the
    *only* holder; an O holder coexists only with S copies.  Directory
    precision: the full-map directory's owner field names the unique
    M/E/O holder (or -1), and its sharer mask names exactly the S
    holders — the precision CE's invalidation-time conflict checks rely
    on.
    """
    owners = 0
    owner_core = -1
    exclusive = False
    s_mask = 0
    copies = 0
    for core, cache in enumerate(protocol.l1):
        payload = cache.peek(line)
        if payload is None:
            continue
        copies += 1
        state = payload.state
        if state == S:
            s_mask |= 1 << core
        elif state == M or state == E:
            owners += 1
            owner_core = core
            exclusive = True
        elif state == O:
            owners += 1
            owner_core = core
    entry = protocol.directory.get(line)
    owner = entry.owner if entry is not None else -1
    sharers = entry.sharers if entry is not None else 0
    expected_owner = owner_core if owners == 1 else -1
    if (
        owners <= 1
        and not (exclusive and copies > 1)
        and owner == expected_owner
        and sharers == s_mask
    ):
        return []

    holders = _holders(protocol, line)
    violations = []
    if owners > 1:
        violations.append(Violation(
            "swmr",
            "multiple owners: "
            + ", ".join(
                f"core {c}={STATE_NAMES[p.state]}" for c, p in holders.items()
            ),
            line=line,
        ))
    elif exclusive and copies > 1:
        violations.append(Violation(
            "swmr",
            f"core {owner_core} holds {STATE_NAMES[holders[owner_core].state]} "
            f"while {copies - 1} other copy/copies exist",
            line=line,
        ))
    if owners and owner != expected_owner:
        owner_list = [c for c, p in holders.items() if p.state in (O, E, M)]
        violations.append(Violation(
            "directory-precision",
            f"owner field {owner} but M/E/O holder(s) {owner_list}",
            line=line,
        ))
    elif not owners and owner != -1:
        violations.append(Violation(
            "directory-precision",
            f"owner field {owner} but no core holds M/E/O",
            line=line,
        ))
    if sharers != s_mask:
        violations.append(Violation(
            "directory-precision",
            f"sharer mask {_bits(sharers)} but S holders {_bits(s_mask)}",
            line=line,
        ))
    return violations


def check_ce_line(protocol, line: int) -> list[Violation]:
    """CE access-bit liveness on one line: dead metadata is inert, live
    metadata is accounted.

    A spilled entry tagged with its core's *current* region must be in
    that core's spill log (so the boundary clear reaches it), and must
    not coexist with a live in-cache copy of the same line (a re-fetch
    always re-fills and removes the spilled entry).  Entries tagged with
    a dead region index may linger (lazy reclamation) but are never
    consulted — the mutation tests pin that behaviorally.
    """
    per_line = protocol.meta_table.get_line(line)
    if per_line is None:
        return []
    violations = []
    region = protocol.region
    for core, entry in per_line.items():
        if core >= protocol.active_cores:
            violations.append(Violation(
                "ce-liveness", "spilled entry for an idle core",
                core=core, line=line,
            ))
            continue
        if entry.region != region[core]:
            continue  # dead entry: semantically cleared, reclaimed lazily
        if line not in protocol.spill_log[core]:
            violations.append(Violation(
                "ce-liveness",
                f"live spilled entry (region {entry.region}) missing from "
                "the spill log — the boundary clear would leak it",
                core=core, line=line,
            ))
        payload = protocol.l1[core].peek(line)
        if payload is not None and payload.region == region[core]:
            violations.append(Violation(
                "ce-liveness",
                "live spilled entry coexists with a live cached copy "
                "(re-fetch must re-fill and remove it)",
                core=core, line=line,
            ))
    return violations


def check_arc_line(protocol, line: int) -> list[Violation]:
    """ARC owner-table consistency on one line: a private line is cached
    only by its owner (with ``shared=False``); a line cached by anyone
    after a second accessor is marked SHARED and every copy knows it."""
    owner = protocol.owner_table.get(line)
    violations = []
    for core, cache in enumerate(protocol.l1):
        payload = cache.peek(line)
        if payload is None:
            continue
        if owner is None:
            return [Violation(
                "arc-classification", "cached line was never classified",
                line=line,
            )]
        if owner == SHARED:
            if not payload.shared:
                violations.append(Violation(
                    "arc-classification",
                    "SHARED line cached with shared=False",
                    core=core, line=line,
                ))
        elif core != owner:
            violations.append(Violation(
                "arc-classification",
                f"private line (owner {owner}) cached by another core "
                "without a shared transition",
                core=core, line=line,
            ))
        elif payload.shared:
            violations.append(Violation(
                "arc-classification",
                "private line cached with shared=True",
                core=core, line=line,
            ))
    return violations


# --------------------------------------------------------------------------
# core-scoped checks: (protocol, core, boundary kind or None) -> violations
# --------------------------------------------------------------------------


def check_ce_core(protocol, core: int, kind: int | None) -> list[Violation]:
    """CE liveness at a boundary: the region-end clear empties the core's
    spill log, so no spilled entry of the ended region stays accounted."""
    if kind is None or not protocol.spill_log[core]:
        return []
    return [Violation(
        "ce-liveness", "spill log survived the region-end clear", core=core,
    )]


def check_arc_core(protocol, core: int, kind: int | None) -> list[Violation]:
    """Self-invalidation/self-downgrade correctness at boundaries.

    Always: a line queued in the core's ``dirty_shared`` is a cached
    shared line.  Immediately after the core's region boundary it holds
    no dirty shared line (self-downgrade flushed them) and no pending
    unregistered deltas; after an ACQUIRE/BARRIER it holds no shared
    line at all (self-invalidation), so no stale read can follow.
    """
    violations = []
    cache = protocol.l1[core]
    for line in sorted(protocol.dirty_shared[core]):
        payload = cache.peek(line)
        if payload is None or not payload.shared:
            violations.append(Violation(
                "arc-boundary",
                "dirty-shared queue names a line that is "
                + ("not cached" if payload is None else "not shared"),
                core=core, line=line,
            ))
    if kind is None:
        return violations
    if protocol.pending_delta[core]:
        violations.append(Violation(
            "arc-boundary",
            "unregistered deltas survived the region-end flush",
            core=core,
        ))
    # Direct set-dict iteration: the sanitizer runs this scan over every
    # resident line at every boundary, so the generator layers of
    # ``hierarchy.items()`` are measurable — see bench_modelcheck.py.
    invalidating = kind in (ACQUIRE, BARRIER)
    for level in cache.levels():
        for entries in level.raw_sets():
            for line, payload in entries.items():
                if not payload.shared:
                    continue
                if payload.dirty:
                    violations.append(Violation(
                        "arc-boundary",
                        "dirty shared line survived the self-downgrade",
                        core=core, line=line,
                    ))
                if invalidating:
                    violations.append(Violation(
                        "arc-boundary",
                        "shared line survived self-invalidation at an "
                        "acquire — a stale read is now possible",
                        core=core, line=line,
                    ))
    return violations


# --------------------------------------------------------------------------
# state-scoped checks: (run) -> violations
# --------------------------------------------------------------------------


def check_dirty_states(run: "Run") -> list[Violation]:
    """MESI-family state sanity: payload states are within the lattice
    and DIRTY_STATES membership matches M/O exactly."""
    violations = []
    for line in sorted(_mentioned_lines(run.protocol)):
        for core, payload in _holders(run.protocol, line).items():
            if payload.state not in STATE_NAMES:
                violations.append(Violation(
                    "state-lattice",
                    f"unknown L1 state {payload.state!r}",
                    core=core, line=line,
                ))
            elif (payload.state in DIRTY_STATES) != (payload.state in (M, O)):
                violations.append(Violation(
                    "state-lattice",
                    f"DIRTY_STATES disagrees with state "
                    f"{STATE_NAMES[payload.state]}",
                    core=core, line=line,
                ))
    return violations


def check_ghost_values(run: "Run") -> list[Violation]:
    """Data-value consistency against the ghost memory.

    Under eager invalidation every cached copy holds the line's current
    version: a write bumps the global version and invalidates every
    other copy, so a surviving stale copy means an invalidation was
    skipped.  Runs without value tracking (ARC) are exempt.
    """
    if not run.track_values:
        return []
    violations = []
    for core in range(run.cores):
        for line in sorted(run.shadow[core]):
            held = run.shadow[core][line]
            current = run.ghost.get(line, 0)
            if held != current:
                violations.append(Violation(
                    "ghost-value",
                    f"cached copy holds version {held}, memory is at "
                    f"{current}",
                    core=core,
                    line=line,
                ))
    return violations


def check_aim_inclusion(run: "Run") -> list[Violation]:
    """AIM slice inclusion/geometry: every resident metadata entry is
    homed at its slice's bank and occupancy respects capacity."""
    violations = []
    machine = run.machine
    for bank, aim_slice in enumerate(run.protocol.aim):
        occupancy = aim_slice.cache.occupancy()
        if occupancy > run.cfg.aim.num_entries:
            violations.append(Violation(
                "aim-inclusion",
                f"slice {bank} holds {occupancy} entries, capacity "
                f"{run.cfg.aim.num_entries}",
            ))
        for line, _entry in aim_slice.cache.items():
            if machine.home_bank(line) != bank:
                violations.append(Violation(
                    "aim-inclusion",
                    f"entry homed at bank {machine.home_bank(line)} "
                    f"resident in slice {bank}",
                    line=line,
                ))
    return violations


def check_region_counts(run: "Run") -> list[Violation]:
    """Region indices advance by exactly one per boundary event."""
    violations = []
    for core in range(run.cores):
        if run.protocol.region[core] != run.boundaries[core]:
            violations.append(Violation(
                "region-count",
                f"region index {run.protocol.region[core]} after "
                f"{run.boundaries[core]} boundary event(s)",
                core=core,
            ))
    return violations


#: coherence-action counters a refining protocol must reproduce
COHERENCE_COUNTERS = (
    "l1_hits", "l1_misses", "l1_evictions", "l1_writebacks",
    "llc_hits", "llc_misses", "dir_lookups",
    "invalidations_sent", "forwards", "upgrades", "downgrade_writebacks",
)
#: also reproduced by CE+ over CE: the metadata *content* path
METADATA_COUNTERS = (
    "metadata_spills", "metadata_fills", "metadata_checks",
    "metadata_clears",
)


def _visible(protocol, metadata: bool) -> dict[str, object]:
    """The outcome a lower protocol can see, by component: every cached
    line's state (plus masks and region tag when ``metadata``), the
    directory, the counters, and with ``metadata`` the spilled entries,
    the spill logs and the reported conflicts."""
    out: dict[str, object] = {}
    for core, cache in enumerate(protocol.l1):
        out[f"core {core} L1"] = sorted(
            (line, STATE_NAMES[p.state])
            + ((p.read_mask, p.write_mask, p.region) if metadata else ())
            for line, p in cache.items()
        )
    out["directory"] = sorted(
        (line, entry.owner, entry.sharers)
        for line, entry in protocol.directory.items()
        if entry.owner != -1 or entry.sharers
    )
    counters: tuple[str, ...] = COHERENCE_COUNTERS
    if metadata:
        out["spilled metadata"] = sorted(
            (line, core, entry.read_mask, entry.write_mask, entry.region)
            for line, core, entry in protocol.meta_table.items()
        )
        out["spill logs"] = [sorted(log) for log in protocol.spill_log]
        out["conflicts"] = sorted(
            (r.line_addr, r.byte_mask, r.first_core, r.first_region,
             r.second_core, r.second_region, r.detected_by)
            for r in protocol.stats.conflicts
        )
        counters += METADATA_COUNTERS
    stats = protocol.stats
    out.update((name, getattr(stats, name)) for name in counters)
    return out


def check_refinement(run: "Run") -> list[Violation]:
    """CE refines MESI and CE+ refines CE, step by step.

    The run's lockstep twin executes the same events (and the same
    mutation) on the protocol the run's protocol must refine.  After
    every step the twin's visible outcome must be reproduced exactly:
    for a MESI twin the coherence decisions (line states, directory,
    coherence counters), for a CE twin also the masks, region tags,
    spilled metadata, spill logs, conflicts and metadata counters —
    everything but where CE+ keeps the metadata (the ``aim_*`` family).
    """
    twin = run.twin
    if twin is None:
        return []
    metadata = _is_ce_family(twin)
    mine = _visible(run.protocol, metadata)
    theirs = _visible(twin, metadata)
    diverged = [name for name in mine if mine[name] != theirs[name]]
    if not diverged:
        return []
    return [Violation(
        "refinement",
        f"diverges from its {twin.name} twin: "
        + "; ".join(
            f"{name} {mine[name]} vs {theirs[name]}" for name in diverged
        ),
    )]


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Invariant:
    """One catalogue entry: its name and a one-line summary."""

    name: str
    summary: str


#: the catalogue, in reporting order
INVARIANTS: tuple[Invariant, ...] = (
    Invariant(
        "swmr",
        "at most one core in M/E/O per line; E/M holders are sole holders; "
        "O coexists only with S copies",
    ),
    Invariant(
        "directory-precision",
        "directory owner/sharer fields name exactly the M/E/O holder and "
        "the S holders",
    ),
    Invariant(
        "state-lattice",
        "L1 states stay within S<O<E<M and DIRTY_STATES is exactly {M, O}",
    ),
    Invariant(
        "ghost-value",
        "every cached copy holds the ghost memory's current version "
        "(data-value consistency under eager invalidation)",
    ),
    Invariant(
        "ce-liveness",
        "live spilled metadata is in the spill log and never coexists "
        "with a live cached copy; a boundary empties its core's spill "
        "log; dead-region metadata is inert",
    ),
    Invariant(
        "aim-inclusion",
        "AIM slices hold only entries homed at their bank, within "
        "capacity",
    ),
    Invariant(
        "arc-classification",
        "owner table and per-line shared flags agree with actual cached "
        "copies",
    ),
    Invariant(
        "arc-boundary",
        "boundaries flush dirty shared lines and deltas; acquires leave "
        "no shared line cached (no stale read after a boundary)",
    ),
    Invariant(
        "region-count",
        "region indices advance by exactly one per boundary event",
    ),
    Invariant(
        "refinement",
        "CE steps exactly as MESI does and CE+ exactly as CE does on "
        "everything the lower protocol can see",
    ),
)

_RANK = {invariant.name: rank for rank, invariant in enumerate(INVARIANTS)}


def _is_mesi_family(protocol) -> bool:
    return hasattr(protocol, "directory")


def _is_ce_family(protocol) -> bool:
    return hasattr(protocol, "meta_table")


def _has_aim(protocol) -> bool:
    return hasattr(protocol, "aim")


def _is_arc(protocol) -> bool:
    return hasattr(protocol, "owner_table")


#: the implementations by scope, each behind its structural probe
LINE_CHECKS: tuple[tuple[Callable, Callable], ...] = (
    (_is_mesi_family, check_mesi_line),
    (_is_ce_family, check_ce_line),
    (_is_arc, check_arc_line),
)
CORE_CHECKS: tuple[tuple[Callable, Callable], ...] = (
    (_is_ce_family, check_ce_core),
    (_is_arc, check_arc_core),
)
STATE_CHECKS: tuple[tuple[Callable, Callable], ...] = (
    (_is_mesi_family, check_dirty_states),
    (_is_mesi_family, check_ghost_values),
    (_has_aim, check_aim_inclusion),
    (lambda protocol: True, check_region_counts),
    (_is_ce_family, check_refinement),
)


def line_checks(protocol) -> list[Callable]:
    """The line-scoped checks that apply to ``protocol``."""
    return [check for applies, check in LINE_CHECKS if applies(protocol)]


def core_checks(protocol) -> list[Callable]:
    """The core-scoped checks that apply to ``protocol``."""
    return [check for applies, check in CORE_CHECKS if applies(protocol)]


def _mentioned_lines(protocol) -> set[int]:
    """Every line a cache, the directory or the spilled metadata holds."""
    lines: set[int] = set()
    for cache in protocol.l1:
        lines.update(line for line, _payload in cache.items())
    lines.update(getattr(protocol, "directory", ()))
    if _is_ce_family(protocol):
        lines.update(line for line, _core, _entry in protocol.meta_table.items())
    return lines


def check_state(run: "Run") -> list[Violation]:
    """Run every applicable check against the run's current state.

    Violations come back in catalogue order.
    """
    protocol = run.protocol
    violations: list[Violation] = []
    checks = line_checks(protocol)
    for line in sorted(_mentioned_lines(protocol)):
        for check in checks:
            violations.extend(check(protocol, line))
    last = run.last_step
    boundary = None if last is None or last[1].is_access() else last
    for check in core_checks(protocol):
        for core in range(run.cores):
            kind = boundary[1].kind if boundary and boundary[0] == core else None
            violations.extend(check(protocol, core, kind))
    for applies, check in STATE_CHECKS:
        if applies(protocol):
            violations.extend(check(run))
    violations.sort(key=lambda violation: _RANK[violation.invariant])
    return violations
