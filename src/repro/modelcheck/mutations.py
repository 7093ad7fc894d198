"""The catalogue of seeded protocol mutations.

Every deliberately broken protocol the verification tests use comes
from :data:`MUTATIONS`.  A mutation models one buggy edit to one
protocol class's source: :meth:`Mutation.dynamic` patches a live
instance, and only if the instance's class inherits the edited one, so
a lockstep twin (``driver.Run``) runs the same edit exactly where the
source would have it.  Pass ``mutation.dynamic`` as ``mutate=`` to
:func:`~repro.modelcheck.explorer.check_protocol` or
:func:`~repro.modelcheck.shrink.replay_trace`.
"""

from __future__ import annotations

import types
from dataclasses import dataclass
from typing import Callable

from ..protocols.base import S


def _skip_invalidations(protocol) -> None:
    protocol._invalidate_sharers = lambda *args, **kwargs: 0


def _blind_detection(protocol) -> None:
    for method in ("_check_remote", "_remote_bits_check"):
        setattr(protocol, method, lambda *args, **kwargs: None)


def _ignore_region_tag(protocol) -> None:
    """``_check_remote`` without its leading dead-region guard, so
    conflict checks run against bits of already-ended regions."""

    def unguarded(
        self, holder, payload, line, req_core, mask, req_is_write, cycle, via
    ):
        if req_is_write:
            overlap = mask & (payload.read_mask | payload.write_mask)
            first_was_write = bool(mask & payload.write_mask)
        else:
            overlap = mask & payload.write_mask
            first_was_write = True
        if overlap:
            self.report_conflict(
                cycle=cycle, line_addr=line, byte_mask=overlap,
                first_core=holder, first_region=payload.region,
                first_was_write=first_was_write, second_core=req_core,
                second_was_write=req_is_write, detected_by=via,
            )

    protocol._check_remote = types.MethodType(unguarded, protocol)


def _skip_self_invalidation(protocol) -> None:
    protocol._self_invalidate = lambda core: 0


def _stale_epoch(protocol) -> None:
    """``_on_line_removed`` starts with ``payload.region -= 1``: the
    departing line's bits look dead, so they are dropped, not spilled."""
    removed = protocol._on_line_removed

    def stale(core, line, payload, cycle):
        payload.region -= 1
        removed(core, line, payload, cycle)

    protocol._on_line_removed = stale


def _arc_forget_ends(protocol) -> None:
    protocol._record_region_end = lambda core, cycle: None


def _ce_boundary_drop(protocol) -> None:
    """``_clear_spilled`` first evicts the core's clean S lines: still
    coherent, but CE no longer makes MESI's coherence decisions."""
    clear = protocol._clear_spilled

    def dropping(core, cycle):
        cache = protocol.l1[core]
        for line, payload in list(cache.items()):
            if payload.state == S:
                cache.invalidate(line)
                protocol._evict(core, line, payload, cycle)
        return clear(core, cycle)

    protocol._clear_spilled = dropping


@dataclass(frozen=True)
class Mutation:
    """One seeded defect in one protocol class."""

    name: str
    summary: str
    #: the protocol class whose source the defect edits
    target: str
    #: the modelcheck key whose first counterexample the tests pin
    key: str
    patch: Callable[[object], None]

    def dynamic(self, protocol) -> None:
        """Apply the defect to ``protocol`` if it inherits the target."""
        if any(cls.__name__ == self.target for cls in type(protocol).__mro__):
            self.patch(protocol)


MUTATIONS: dict[str, Mutation] = {
    mutation.name: mutation
    for mutation in (
        Mutation(
            "skip-invalidations",
            "MESI family: write upgrades/misses no longer invalidate S copies",
            "MesiProtocol", "mesi", _skip_invalidations,
        ),
        Mutation(
            "blind-detection",
            "CE family: the eager conflict checks are dropped entirely",
            "CeProtocol", "ce", _blind_detection,
        ),
        Mutation(
            "ignore-region-tag",
            "CE family: conflicts reported against dead (region-ended) bits",
            "CeProtocol", "ce", _ignore_region_tag,
        ),
        Mutation(
            "skip-self-invalidation",
            "ARC: acquires no longer invalidate shared lines (stale reads)",
            "ArcProtocol", "arc", _skip_self_invalidation,
        ),
        Mutation(
            "stale-epoch",
            "CE family: an off-by-one region epoch drops live bits on "
            "eviction instead of spilling them",
            "CeProtocol", "ce", _stale_epoch,
        ),
        Mutation(
            "arc-forget-ends",
            "ARC: region ends are never recorded, so a just-ended "
            "region's registrations are reclaimed as long dead",
            "ArcProtocol", "arc", _arc_forget_ends,
        ),
        Mutation(
            "ce-boundary-drop",
            "CE family: boundaries evict clean S lines (coherent, but not "
            "MESI's decisions)",
            "CeProtocol", "ce", _ce_boundary_drop,
        ),
    )
}
