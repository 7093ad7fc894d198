"""Markdown report generation.

``build_report`` runs every registered experiment at the given settings
and renders one Markdown document: for each experiment, the regenerated
tables plus the expected-shape verdicts from
:mod:`repro.harness.shapes`.  ``repro report`` writes it to a file —
this is how the repository's EXPERIMENTS.md measurement blocks are
produced.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from ..common import durable
from ..common.errors import HarnessError
from .executor import Executor
from .experiments import REGISTRY, Settings, run_experiment, set_executor
from .result_cache import ResultCache, default_cache_dir
from .shapes import run_checks


def build_report(
    settings: Settings,
    exp_ids: list[str] | None = None,
    *,
    keep_going: bool = False,
) -> str:
    """Run experiments and render the full Markdown report.

    With ``keep_going`` (pair it with an executor in the same mode) an
    experiment that cannot render because simulation points terminally
    failed is kept in the report as an explicit **PARTIAL** section —
    the document always says exactly which artifacts are incomplete.
    """
    targets = exp_ids or list(REGISTRY)
    lines: list[str] = [
        "# Experiment report",
        "",
        f"Settings: {settings.num_threads} threads, seed {settings.seed}, "
        f"scale {settings.scale}, core counts {list(settings.core_counts)}.",
        "",
    ]
    total_checks = passed_checks = 0
    for exp_id in targets:
        exp = REGISTRY[exp_id]
        start = time.perf_counter()
        try:
            tables = run_experiment(exp_id, settings)
        except (HarnessError, KeyError, ValueError, ZeroDivisionError) as exc:
            if not keep_going:
                raise
            elapsed = time.perf_counter() - start
            lines.append(f"## {exp_id} — {exp.paper_artifact}")
            lines.append("")
            lines.append(
                f"**PARTIAL** — not rendered: failed simulation points "
                f"({type(exc).__name__}).  *({elapsed:.1f}s)*"
            )
            lines.append("")
            continue
        elapsed = time.perf_counter() - start
        lines.append(f"## {exp_id} — {exp.paper_artifact}")
        lines.append("")
        lines.append(f"{exp.description}  *({elapsed:.1f}s)*")
        lines.append("")
        for table in tables:
            lines.append("```")
            lines.append(table.render())
            lines.append("```")
            lines.append("")
        checks = run_checks(exp_id, tables)
        if checks:
            lines.append("Shape checks:")
            lines.append("")
            for check in checks:
                total_checks += 1
                passed_checks += check.passed
                status = "PASS" if check.passed else "FAIL"
                detail = f" — {check.detail}" if check.detail else ""
                lines.append(f"* **{status}**: {check.claim}{detail}")
            lines.append("")
    lines.insert(
        4, f"Shape checks passed: **{passed_checks}/{total_checks}**."
    )
    lines.insert(5, "")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro report")
    parser.add_argument("--out", type=Path, default=Path("report.md"))
    parser.add_argument(
        "--preset", choices=("full", "bench", "quick"), default="full"
    )
    parser.add_argument(
        "--jobs", default="1",
        help="worker processes for simulation points: a count or 'auto' "
        "(default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory (default: ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--point-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per simulation point",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retries for transient point failures",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="render failed experiments as PARTIAL sections instead of "
        "aborting the report",
    )
    parser.add_argument("experiments", nargs="*", help="subset of experiment ids")
    args = parser.parse_args(argv)
    settings = {
        "full": Settings.full,
        "bench": Settings.bench,
        "quick": Settings.quick,
    }[args.preset]()
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    executor = Executor(
        jobs=args.jobs,
        cache=cache,
        point_timeout=args.point_timeout,
        retries=args.retries,
        keep_going=args.keep_going,
    )
    set_executor(executor)
    try:
        report = build_report(
            settings, args.experiments or None, keep_going=args.keep_going
        )
    finally:
        set_executor(None)
        executor.close()
    if cache is not None:
        executor.manifest.write(cache.root / "manifest.json")
    durable.atomic_replace_text(args.out, report, site="report")
    print(f"wrote {args.out} ({len(report.splitlines())} lines)")
    return 0
