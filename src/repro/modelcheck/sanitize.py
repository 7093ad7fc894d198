"""Coherence invariant sanitizer for full-size simulations.

The model checker exhausts tiny configurations; the sanitizer runs the
same checks inside real runs.  It holds no invariant logic of its own:
:func:`arm_protocol` wraps a protocol instance's ``access`` and
``region_boundary`` methods (per instance, so unsanitized runs pay
nothing) and, after every dispatch, runs the applicable checks from
:mod:`repro.modelcheck.invariants`:

* after an access: :func:`~repro.modelcheck.invariants.line_checks`
  on the touched line;
* after a boundary: :func:`~repro.modelcheck.invariants.core_checks`
  on the core that ran it.

The checks are read-only.  The structural probe runs at the *first
dispatch* (never at arm time, when subclass attributes don't exist
yet).  A violation raises :class:`~repro.common.errors.SimulationError`
naming the catalogue invariant that failed, at the exact dispatch that
broke it.
"""

from __future__ import annotations

from ..common.errors import SimulationError
from .invariants import core_checks, line_checks


def _fail(protocol, violations) -> None:
    raise SimulationError(f"sanitizer[{protocol.name}]: {violations[0].render()}")


def line_checkers(protocol) -> list:
    """Bind the line-scoped checks applicable to ``protocol``.

    Each returned closure takes one line base address and raises
    :class:`~repro.common.errors.SimulationError` on a violation.
    Shared by :func:`arm_protocol` (per-dispatch checks) and the batch
    engine (per-distinct-line checks after a bulk run).  Call only once
    the protocol subclass is fully constructed — the structural probe
    duck-types on subclass attributes.
    """

    def bind(check):
        def checker(line: int) -> None:
            violations = check(protocol, line)
            if violations:
                _fail(protocol, violations)

        return checker

    return [bind(check) for check in line_checks(protocol)]


def arm_protocol(protocol) -> None:
    """Wrap ``protocol``'s dispatch methods with post-dispatch checks."""
    inner_access = protocol.access
    inner_boundary = protocol.region_boundary
    line_of = protocol.machine.amap.line
    on_line: list | None = None
    on_core: list | None = None

    def access(core, addr, size, is_write, cycle):
        nonlocal on_line
        latency = inner_access(core, addr, size, is_write, cycle)
        if on_line is None:
            on_line = line_checks(protocol)
        line = line_of(addr)
        for check in on_line:
            violations = check(protocol, line)
            if violations:
                _fail(protocol, violations)
        return latency

    def region_boundary(core, cycle, kind):
        nonlocal on_core
        latency = inner_boundary(core, cycle, kind)
        if on_core is None:
            on_core = core_checks(protocol)
        for check in on_core:
            violations = check(protocol, core, kind)
            if violations:
                _fail(protocol, violations)
        return latency

    protocol.access = access
    protocol.region_boundary = region_boundary
