"""IR of the static conflict analyzer: objects, access sites, verdicts.

The abstract interpreter (:mod:`repro.statics.interp`) lowers a capture
workload's source into this IR: every ``session.array``/``session.struct``
call becomes a :class:`SharedObject` with the *same* base address the
real allocator would assign (the interpreter mirrors the seeded bump
allocator), and every traced load/store reached on any path becomes an
:class:`AccessSite` carrying its element-index interval, the definite
lockset, the barrier phase, and a definiteness flag.

The report layer (:mod:`repro.statics.report`) classifies site pairs and
lines from this IR alone — it never looks back at the AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .intervals import Interval

#: pair verdicts, ordered by severity
NO_CONFLICT = "no-conflict"
MAY_CONFLICT = "may-conflict"
MUST_CONFLICT = "must-conflict"

#: static line classes (names match ``core.batch``'s classifier tiers)
LINE_PRIVATE = "private"
LINE_RO_SHARED = "ro_shared"
LINE_CONTENDED = "contended"

#: reasons a pair is NO-CONFLICT (reported, so precision is inspectable)
REASON_DISJOINT = "disjoint-footprint"
REASON_READ_ONLY = "both-read"
REASON_LOCK = "common-lock"
REASON_PHASE = "barrier-ordered"


@dataclass
class SharedObject:
    """One ``session.array``/``session.struct`` allocation site."""

    oid: int
    kind: str  # "array" | "struct"
    name: str
    length: int  # elements (fields for a struct)
    element_size: int
    base: int | None  # mirrored address; None when layout is unknown
    source_line: int
    fields: tuple[str, ...] | None = None
    tainted: bool = False  # escaped into unanalyzable code

    @property
    def nbytes(self) -> int:
        return self.length * self.element_size

    def lines(self, line_size: int) -> list[int]:
        """All cache lines the object spans (empty when base unknown)."""
        if self.base is None:
            return []
        first = self.base // line_size * line_size
        last = (self.base + self.nbytes - 1) // line_size * line_size
        return list(range(first, last + line_size, line_size))


@dataclass(frozen=True)
class AccessSite:
    """One traced load/store reached by the abstract interpreter."""

    oid: int
    tid: int
    is_write: bool
    index: Interval  # element space, already clipped to the object
    locks: frozenset  # ids of locks *definitely* held
    phase: Interval  # barrier phase counter at the site
    definite: bool  # reached on every path of this thread
    source_line: int
    #: an ambiguously-resolved lock is held: useless for exclusion, but
    #: it could coincide across threads at runtime, so the site may not
    #: take part in a MUST-CONFLICT claim
    ambiguous_lock: bool = False

    def footprint(self, obj: SharedObject) -> Interval:
        """Byte interval relative to the object base."""
        lo = 0 if self.index.lo is None else self.index.lo * obj.element_size
        hi = (
            obj.nbytes - 1
            if self.index.hi is None
            else self.index.hi * obj.element_size + obj.element_size - 1
        )
        return Interval(lo, hi)


@dataclass
class StaticLayout:
    """Mirrored allocator state: proves/disproves address knowledge."""

    valid: bool = True
    notes: list[str] = field(default_factory=list)

    def invalidate(self, why: str) -> None:
        self.valid = False
        if why not in self.notes:
            self.notes.append(why)
