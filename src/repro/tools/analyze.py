"""Static trace analyzer CLI: happens-before races + lint, no simulation.

Runs the :mod:`repro.analysis` pass over a workload or recorded trace:
the schedule-independent happens-before race scan (lifted to SFR
region-pair conflicts, same keys as the oracle and the detectors) and
the trace/config lint rules.

Usage::

    repro analyze racy-writers --threads 8
    repro analyze stencil-ocean --format json
    repro analyze path/to/trace.rtb --fail-on race
"""

from __future__ import annotations

import argparse

from ..analysis import (
    BarrierStallError,
    build_hb,
    lint_program,
    max_severity,
    region_conflicts,
)
from ..analysis.lint import SEVERITIES
from ..cli import (
    EXIT_FINDINGS,
    add_format,
    add_target_args,
    emit,
    pow2_cores,
    program_from_args,
)
from ..common.config import SystemConfig
from ..trace.program import Program

#: conflicts printed in text mode before eliding
TEXT_CONFLICT_LIMIT = 20


def analyze_program(
    program: Program,
    cfg: SystemConfig | None = None,
    line_size: int = 64,
    races: bool = True,
    lint: bool = True,
) -> dict:
    """Run the full analysis; returns the JSON-shaped report dict."""
    report: dict = {
        "target": program.name,
        "threads": program.num_threads,
        "line_size": line_size,
    }
    if races:
        try:
            hb = build_hb(program)
        except BarrierStallError as stall:
            # The lint pass reports the deadlock (B203); the race scan is
            # meaningless on a trace that can never complete.
            report["races"] = {"error": "barrier deadlock", "stalled": stall.stalled}
            hb = None
        if hb is not None:
            conflicts = region_conflicts(program, hb, line_size)
            report["races"] = {
                "count": len(conflicts),
                "region_conflicts": [
                    {
                        "line": c.line,
                        "first_core": c.first_core,
                        "first_region": c.first_region,
                        "second_core": c.second_core,
                        "second_region": c.second_region,
                        "byte_mask": c.byte_mask,
                        "kind": c.kind(),
                    }
                    for c in sorted(
                        conflicts.values(), key=lambda c: (c.line, c.first_core)
                    )
                ],
            }
    if lint:
        findings = lint_program(program, cfg)
        report["lint"] = {
            "count": len(findings),
            "max_severity": max_severity(findings),
            "findings": [
                {
                    "rule": f.rule_id,
                    "severity": f.severity,
                    "subject": f.subject,
                    "message": f.message,
                    "hint": f.hint,
                }
                for f in findings
            ],
        }
    return report


def render_text(report: dict) -> str:
    lines = [f"{report['target']}: {report['threads']} threads"]
    races = report.get("races")
    if races is not None:
        if "error" in races:
            lines.append(f"  races: analysis aborted — {races['error']}")
        elif races["count"] == 0:
            lines.append("  races: none (all sharing HB-ordered or lock-protected)")
        else:
            lines.append(f"  races: {races['count']} predicted region conflict(s)")
            for c in races["region_conflicts"][:TEXT_CONFLICT_LIMIT]:
                lines.append(
                    f"    {c['kind']} on {c['line']:#x} bytes "
                    f"{c['byte_mask']:#x}: core {c['first_core']} "
                    f"r{c['first_region']} vs core {c['second_core']} "
                    f"r{c['second_region']}"
                )
            hidden = races["count"] - TEXT_CONFLICT_LIMIT
            if hidden > 0:
                lines.append(f"    ... and {hidden} more")
    lint = report.get("lint")
    if lint is not None:
        if lint["count"] == 0:
            lines.append("  lint: clean")
        else:
            lines.append(f"  lint: {lint['count']} finding(s)")
            for f in lint["findings"]:
                lines.append(
                    f"    [{f['rule']}:{f['severity']}] {f['subject']}: "
                    f"{f['message']}"
                )
                lines.append(f"      fix: {f['hint']}")
    return "\n".join(lines)


def should_fail(report: dict, fail_on: str) -> bool:
    """Apply the --fail-on gate to a report."""
    if fail_on == "never":
        return False
    lint = report.get("lint") or {"max_severity": None}
    worst = lint["max_severity"]
    races = report.get("races") or {}
    racy = bool(races.get("count")) or "error" in races
    if fail_on == "race":
        return racy or worst == "error"
    return worst is not None and (
        SEVERITIES.index(worst) >= SEVERITIES.index(fail_on)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro analyze")
    add_target_args(parser)
    parser.add_argument(
        "--protocol", choices=("mesi", "ce", "ce+", "arc"), default="ce+",
        help="protocol assumed for the config lint rules",
    )
    parser.add_argument(
        "--cores", type=int, default=None,
        help="core count for the config lint (default: threads rounded "
        "up to a power of two)",
    )
    parser.add_argument("--line-size", type=int, default=64)
    parser.add_argument(
        "--no-races", action="store_true", help="skip the happens-before scan"
    )
    parser.add_argument(
        "--no-lint", action="store_true", help="skip the lint rules"
    )
    add_format(parser)
    parser.add_argument(
        "--fail-on", choices=("never", "warning", "error", "race"),
        default="never",
        help="exit 3 when findings at/above this level exist "
        "('race' also fails on any predicted region conflict)",
    )
    args = parser.parse_args(argv)

    program = program_from_args(args)
    cores = args.cores if args.cores is not None else pow2_cores(
        program.num_threads
    )
    cfg = SystemConfig(num_cores=cores, protocol=args.protocol)
    report = analyze_program(
        program,
        cfg,
        line_size=args.line_size,
        races=not args.no_races,
        lint=not args.no_lint,
    )
    emit(args.format, report, render_text(report))
    return EXIT_FINDINGS if should_fail(report, args.fail_on) else 0
