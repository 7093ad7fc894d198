"""Simulation-free static analysis of traced programs.

The package answers, without running the cache/NoC simulator, the
questions the simulator answers slowly:

* :mod:`~repro.analysis.hb` / :mod:`~repro.analysis.vectorclock` —
  which access pairs *can* race, under a schedule-independent
  happens-before order (barrier episodes + program order) with a
  common-lockset filter, using FastTrack-style epochs for O(1) pair
  queries;
* :mod:`~repro.analysis.regions` — those races lifted to SFR
  region-pair conflicts, keyed identically to
  :func:`repro.core.oracle.overlap_conflicts` and the detectors'
  conflict records, so all three are set-comparable;
* :mod:`~repro.analysis.lint` — static lint over traces and
  :class:`~repro.common.config.SystemConfig` combinations, each rule
  with a stable id, severity and fix hint.

Entry points: the ``repro analyze`` CLI (:mod:`repro.tools.analyze`)
and ``repro.harness.run --analyze``.
"""

from .hb import (
    BarrierStallError,
    HbIndex,
    AccessRace,
    access_races,
    build_hb,
    iter_access_races,
)
from .lint import RULES, Finding, Rule, lint_config, lint_program, max_severity
from .regions import (
    RegionConflict,
    conflict_lines,
    region_conflicts,
    thread_pairs,
)
from .vectorclock import Epoch, VectorClock

__all__ = [
    "AccessRace",
    "BarrierStallError",
    "Epoch",
    "Finding",
    "HbIndex",
    "RULES",
    "RegionConflict",
    "Rule",
    "VectorClock",
    "access_races",
    "build_hb",
    "conflict_lines",
    "iter_access_races",
    "lint_config",
    "lint_program",
    "max_severity",
    "region_conflicts",
    "thread_pairs",
]
