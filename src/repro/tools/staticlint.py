"""Static conflict analyzer CLI: whole-program source analysis, no run.

Runs the :mod:`repro.statics` abstract interpreter over capture
workloads (by registered name), single ``.py`` files, or directories of
capture sources, and prints the may-conflict report — shared objects at
their mirrored addresses, tid-affine access slices, the NO/MAY/MUST
verdict per thread pair, and the static PRIVATE/RO_SHARED/CONTENDED
line classes.

Usage::

    repro staticlint                        # all capture-*
    repro staticlint capture-racy-counter --scale 0.2 \
        --fail-on must-conflict
    repro staticlint examples/capture/ --format json
    repro staticlint capture-workqueue --diff-dynamic
"""

from __future__ import annotations

import argparse
from pathlib import Path

from ..cli import (
    EXIT_BROKEN,
    EXIT_FINDINGS,
    add_format,
    add_target_args,
    emit,
    parse_params,
)
from ..common.errors import StaticAnalysisError
from ..statics import (
    MAY_CONFLICT,
    MUST_CONFLICT,
    StaticReport,
    analyze_file,
    analyze_workload,
    build_report,
    diff_dynamic,
)

#: --fail-on thresholds, weakest to strongest verdict
FAIL_LEVELS = ("never", "may-conflict", "must-conflict")


def _workload_names() -> list[str]:
    from ..capture.workloads import CAPTURE_WORKLOADS

    return sorted(CAPTURE_WORKLOADS)


def _expand_targets(targets: list[str]) -> list[tuple[str, str]]:
    """Resolve CLI targets to (kind, spec) pairs.

    A target is a registered ``capture-*`` name, a ``.py`` file, or a
    directory (expanded to its ``*.py`` files, sorted).  No targets
    means every registered capture workload.
    """
    if not targets:
        return [("workload", name) for name in _workload_names()]
    out: list[tuple[str, str]] = []
    for target in targets:
        path = Path(target)
        if path.is_dir():
            out.extend(
                ("file", str(p)) for p in sorted(path.glob("*.py"))
            )
        elif path.suffix == ".py":
            out.append(("file", str(path)))
        else:
            out.append(("workload", target))
    return out


def analyze_target(
    kind: str,
    spec: str,
    *,
    num_threads: int,
    seed: int,
    scale: float,
    params: dict,
    line_size: int,
    function: str | None = None,
) -> StaticReport:
    if kind == "workload":
        analysis = analyze_workload(
            spec,
            num_threads=num_threads,
            seed=seed,
            scale=scale,
            params=params,
            line_size=line_size,
        )
    else:
        analysis = analyze_file(
            spec,
            function=function,
            num_threads=num_threads,
            seed=seed,
            scale=scale,
            params=params,
            line_size=line_size,
        )
    return build_report(analysis)


def _capture_target(
    kind: str,
    spec: str,
    report: StaticReport,
    *,
    num_threads: int,
    seed: int,
    scale: float,
    params: dict,
):
    """Actually capture the analyzed workload for --diff-dynamic.

    Registered workloads go through their builder; ``.py`` targets are
    executed and the analyzed function (``report.analysis.target``)
    called with the same parameters the static pass assumed.
    """
    if kind == "workload":
        from ..capture.workloads import CAPTURE_WORKLOADS

        builder = CAPTURE_WORKLOADS[spec]
    else:
        namespace: dict = {"__name__": "<staticlint-capture>"}
        exec(compile(Path(spec).read_text(), spec, "exec"), namespace)
        builder = namespace[report.analysis.target]
    return builder(num_threads=num_threads, seed=seed, scale=scale, **params)


def render_diff(diff: dict) -> str:
    lines = []
    if diff["soundness"]:
        lines.append(
            f"  SOUNDNESS VIOLATION: {len(diff['soundness'])} dynamic "
            "conflict(s) the static analyzer failed to cover:"
        )
        for entry in diff["soundness"]:
            lines.append(
                f"    line {entry['line']} tids {entry['tids']} "
                f"({entry['kind']}) — analyzer bug"
            )
    if diff["agreed"]:
        lines.append(
            f"  agreed: {len(diff['agreed'])} dynamic conflict(s) covered "
            "by static MAY/MUST pairs"
        )
    if diff["precision"]:
        lines.append(
            f"  precision loss (not a soundness problem): "
            f"{len(diff['precision'])} statically flagged line(s) with no "
            "dynamic conflict under this schedule:"
        )
        for entry in diff["precision"][:10]:
            lines.append(
                f"    line {entry['line']} tids {entry['tids']} on "
                f"{entry['object']} ({entry['verdict']})"
            )
        hidden = len(diff["precision"]) - 10
        if hidden > 0:
            lines.append(f"    ... and {hidden} more")
    if not any(diff.values()):
        lines.append("  static and dynamic agree: no conflicts either way")
    return "\n".join(lines)


def should_fail(verdict: str, fail_on: str) -> bool:
    if fail_on == "never":
        return False
    if fail_on == "must-conflict":
        return verdict == MUST_CONFLICT
    return verdict in (MAY_CONFLICT, MUST_CONFLICT)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro staticlint")
    add_target_args(
        parser, threads=4, nargs="*",
        target_help="capture workload names, .py files, or directories "
        "(default: every registered capture-* workload)",
    )
    parser.add_argument(
        "--function", default=None,
        help="function to analyze in a .py target (default: detect the "
        "ones that build a CaptureSession)",
    )
    parser.add_argument("--line-size", type=int, default=64)
    add_format(parser)
    parser.add_argument(
        "--fail-on", choices=FAIL_LEVELS, default="never",
        help="exit 3 when any target's verdict is at/above this level",
    )
    parser.add_argument(
        "--diff-dynamic", action="store_true",
        help="capture each workload target and contain the static report "
        "against the dynamic happens-before conflicts (soundness "
        "violations exit 4; precision losses are informational)",
    )
    args = parser.parse_args(argv)
    params = parse_params(args.param)

    reports: list[dict] = []
    text: list[str] = []
    failed = False
    unsound = False
    for kind, spec in _expand_targets(args.target):
        try:
            report = analyze_target(
                kind,
                spec,
                num_threads=args.threads,
                seed=args.seed,
                scale=args.scale,
                params=params,
                line_size=args.line_size,
                function=args.function,
            )
        except StaticAnalysisError as exc:
            # directory sweeps hit helper files with no capture session;
            # report and move on rather than abort the sweep
            reports.append({"target": spec, "skipped": str(exc)})
            text.append(f"{spec}: skipped — {exc}")
            continue
        entry = report.to_dict()
        entry["target_spec"] = spec
        failed = failed or should_fail(report.verdict, args.fail_on)
        if args.diff_dynamic:
            program = _capture_target(
                kind, spec, report,
                num_threads=args.threads, seed=args.seed,
                scale=args.scale, params=params,
            )
            diff = diff_dynamic(report, program, args.line_size)
            entry["diff_dynamic"] = diff
            unsound = unsound or bool(diff["soundness"])
        reports.append(entry)
        text.append(report.render_text())
        if "diff_dynamic" in entry and "error" not in entry["diff_dynamic"]:
            text.append(render_diff(entry["diff_dynamic"]))

    emit(args.format, reports, "\n".join(text))
    if unsound:
        return EXIT_BROKEN
    return EXIT_FINDINGS if failed else 0
