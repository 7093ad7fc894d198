"""Source-level static conflict analyzer for capture workloads.

Reads the *source* of a capture workload — no execution, no capture —
and produces a may-conflict report: shared-object allocation sites with
exact mirrored addresses, per-thread access sites with tid-affine index
slices, a lockset + barrier-phase coarsening of happens-before, and a
NO/MAY/MUST-CONFLICT verdict for every cross-thread site pair.  The
companion line classification is exportable as a
:class:`~repro.core.batch.LineClassification`
(:meth:`~repro.statics.report.StaticReport.line_hint`); no simulator
consumes it.  Its only use is the soundness check
:func:`~repro.core.batch.check_static_hint`, which raises unless the
static answer over-approximates the exact one.

Entry points: :func:`analyze_source` (a source string),
:func:`analyze_file` (a ``.py`` path), :func:`analyze_workload` (a
``capture-*`` workload name from :mod:`repro.capture.workloads`);
:func:`build_report` turns the analysis IR into a
:class:`~repro.statics.report.StaticReport`, and
:func:`diff_dynamic` contains it against the dynamic analyzer.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from ..common.errors import StaticAnalysisError
from .interp import StaticAnalysis, analyze_source
from .intervals import Interval
from .model import (
    LINE_CONTENDED,
    LINE_PRIVATE,
    LINE_RO_SHARED,
    MAY_CONFLICT,
    MUST_CONFLICT,
    NO_CONFLICT,
    AccessSite,
    SharedObject,
)
from .report import StaticReport, build_report, diff_dynamic

__all__ = [
    "AccessSite",
    "Interval",
    "LINE_CONTENDED",
    "LINE_PRIVATE",
    "LINE_RO_SHARED",
    "MAY_CONFLICT",
    "MUST_CONFLICT",
    "NO_CONFLICT",
    "SharedObject",
    "StaticAnalysis",
    "StaticReport",
    "analyze_file",
    "analyze_source",
    "analyze_workload",
    "build_report",
    "diff_dynamic",
]


def analyze_file(
    path: str | Path,
    *,
    function: Optional[str] = None,
    num_threads: int = 4,
    seed: int = 1,
    scale: float = 1.0,
    params: Optional[dict] = None,
    line_size: int = 64,
) -> StaticAnalysis:
    """Analyze one workload function from a ``.py`` file."""
    path = Path(path)
    return analyze_source(
        path.read_text(),
        function=function,
        filename=str(path),
        num_threads=num_threads,
        seed=seed,
        scale=scale,
        params=params,
        line_size=line_size,
    )


def analyze_workload(
    name: str,
    *,
    num_threads: int = 4,
    seed: int = 1,
    scale: float = 1.0,
    params: Optional[dict] = None,
    line_size: int = 64,
) -> StaticAnalysis:
    """Analyze a registered ``capture-*`` workload by name.

    Resolves the name through :data:`repro.capture.workloads.
    CAPTURE_WORKLOADS` and statically interprets the *source* of the
    module that defines it — the builder function is never called.
    """
    from ..capture.workloads import CAPTURE_WORKLOADS

    if name not in CAPTURE_WORKLOADS:
        known = ", ".join(sorted(CAPTURE_WORKLOADS))
        raise StaticAnalysisError(
            f"unknown capture workload {name!r} (known: {known})"
        )
    builder = CAPTURE_WORKLOADS[name]
    import importlib

    module = importlib.import_module(builder.__module__)
    source_path = getattr(module, "__file__", None)
    if source_path is None:  # pragma: no cover - real modules have files
        raise StaticAnalysisError(
            f"module {builder.__module__} has no source file"
        )
    return analyze_file(
        source_path,
        function=builder.__name__,
        num_threads=num_threads,
        seed=seed,
        scale=scale,
        params=params,
        line_size=line_size,
    )
