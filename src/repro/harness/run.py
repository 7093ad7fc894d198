"""Command-line experiment runner.

Usage::

    repro run --list
    repro run fig_perf_16
    repro run all --preset bench
    repro run all --preset quick --jobs 4
    repro run all --preset full --report EXPERIMENTS_RAW.md
    repro run fig_aim_sensitivity --threads 16 --scale 1.0

(``python -m repro.harness.run`` is the same command.)

``--jobs N`` fans simulation points out across N worker processes
(``--jobs auto`` clamps to the CPU count); results reassemble
deterministically, so stdout is byte-identical to a serial run.  An
on-disk result cache (``~/.cache/repro`` unless
``--cache-dir``/``$REPRO_CACHE_DIR`` says otherwise) makes repeated
invocations skip identical simulations; ``--no-cache`` disables it.
Every invocation writes ``manifest.json`` into the cache directory,
recording each point's key, timing and per-point status.  Timings go to
stderr so stdout stays a stable, diffable artifact.

``--report PATH`` also writes the tables and every claim's verdict
(:mod:`repro.harness.shapes`) as Markdown, and exits 3 when a claim
fails or cannot be checked; stdout stays the same.

Fault tolerance (see docs/RESILIENCE.md): ``--point-timeout`` bounds
each point's wall clock, ``--retries`` absorbs transient worker
crashes, ``--keep-going`` turns terminal point failures into ``FAILED``
table cells instead of aborting the sweep, ``--resume`` continues an
interrupted sweep from the checkpoint journal, and ``--inject-faults``
runs the sweep under a seeded chaos plan (testing the harness itself).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

from ..common.config import ENGINE_ENV, ENGINES
from ..common.errors import HarnessError
from .charts import chartable, render_bars
from .checkpoint import CHECKPOINT_NAME, Checkpoint
from .executor import Executor
from .experiments import REGISTRY, Settings, run_experiment, set_executor
from .result_cache import ResultCache, default_cache_dir


def prescreen(settings: Settings, strict: bool = False) -> bool:
    """Static pre-screen of every suite workload at the current settings.

    Runs the :mod:`repro.analysis` happens-before scan and lint over each
    workload the experiments will simulate, annotating stderr with one
    line per workload.  Returns False (and, under ``strict``, the caller
    aborts) when any workload lints at error severity or its barriers
    deadlock — those runs would waste simulation time or hang.
    """
    from ..synth.base import generate
    from ..synth.suite import RACY_SUITE, SUITE
    from ..tools.analyze import analyze_program

    clean = True
    for name in tuple(SUITE) + tuple(RACY_SUITE):
        program = generate(
            name,
            num_threads=settings.num_threads,
            seed=settings.seed,
            scale=settings.scale,
        )
        report = analyze_program(program, settings.config())
        races = report["races"]
        lint = report["lint"]
        race_note = (
            "barrier deadlock" if "error" in races
            else f"{races['count']} predicted conflict(s)"
        )
        print(
            f"[analyze: {name}: {race_note}, lint "
            f"{lint['count']} finding(s)"
            + (f", worst={lint['max_severity']}" if lint["count"] else "")
            + "]",
            file=sys.stderr,
        )
        for finding in lint["findings"]:
            print(
                f"[analyze:   {finding['rule']}:{finding['severity']} "
                f"{finding['subject']}: {finding['message']}]",
                file=sys.stderr,
            )
        if lint["max_severity"] == "error" or "error" in races:
            clean = False
    if not clean and strict:
        print(
            "[analyze: error-severity findings; aborting (--analyze-strict)]",
            file=sys.stderr,
        )
    return clean


def _build_settings(args: argparse.Namespace) -> Settings:
    presets = {
        "full": Settings.full,
        "bench": Settings.bench,
        "quick": Settings.quick,
    }
    settings = presets[args.preset]()
    overrides = {
        name: value
        for name, value in (
            ("num_threads", args.threads),
            ("scale", args.scale),
            ("seed", args.seed),
        )
        if value is not None
    }
    return replace(settings, **overrides) if overrides else settings


def _build_executor(args: argparse.Namespace) -> Executor:
    cache = None
    if not args.no_cache:
        # .open() sweeps stale .tmp-* residue a crashed writer left behind
        cache = ResultCache.open(args.cache_dir or default_cache_dir())
        if cache.stats.tmp_reclaimed:
            print(
                f"[cache: reclaimed {cache.stats.tmp_reclaimed} stale "
                "tmp file(s) from a previous crash]",
                file=sys.stderr,
            )
    checkpoint = None
    if cache is not None:
        checkpoint = Checkpoint(
            cache.root / CHECKPOINT_NAME, resume=args.resume
        )
        if args.resume:
            summary = checkpoint.summary()
            print(
                f"[resume: {summary['completed']} completed, "
                f"{summary['failed']} failed point(s) journaled in "
                f"{summary['path']}]",
                file=sys.stderr,
            )
            if checkpoint.torn_bytes:
                print(
                    f"[resume: dropped {checkpoint.torn_bytes} torn "
                    "byte(s) from the checkpoint tail]",
                    file=sys.stderr,
                )
    plan = None
    if args.inject_faults:
        from .faultinject import FaultPlan

        plan = FaultPlan.parse(args.inject_faults)
        print(f"[faultinject: {plan.describe()}]", file=sys.stderr)
    return Executor(
        jobs=args.jobs,
        cache=cache,
        point_timeout=args.point_timeout,
        retries=args.retries,
        keep_going=args.keep_going,
        fault_plan=plan,
        checkpoint=checkpoint,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro run",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment", nargs="?", help="experiment id, or 'all'")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--preset", choices=("full", "bench", "quick"), default="full"
    )
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--jobs", default="1",
        help="worker processes for simulation points: a count, or 'auto' "
        "to clamp to the CPU count (default: 1, serial)",
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
        help="wall-clock budget per simulation point; a hung point's "
        "worker is killed and the point retried or failed",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry transient point failures (worker crash, pool "
        "breakage) up to N times with exponential backoff",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="don't abort on a terminally failed point: record it, mark "
        "its cells FAILED and finish the rest of the sweep",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep from the checkpoint journal "
        "in the cache directory (completed points are cache hits; "
        "with --keep-going, known-failed points are not re-attempted)",
    )
    parser.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="run under a deterministic chaos plan, e.g. "
        "'seed=7,crash=0.2,slow=0.05,slow-seconds=5,corrupt=0.2,"
        "pickle=0.1' (harness self-test)",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="render numeric tables as ASCII bar charts",
    )
    parser.add_argument(
        "--analyze", action="store_true",
        help="pre-screen the workload suite with the static analyzer "
        "(races + lint) and annotate stderr before running",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="arm the coherence invariant sanitizer in every simulation "
        "(repro.modelcheck): per-dispatch SWMR/directory/metadata checks "
        "that raise at the first violated invariant; stdout is unchanged",
    )
    parser.add_argument(
        "--analyze-strict", action="store_true",
        help="like --analyze, but exit 3 on error-severity findings "
        "instead of running",
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="also write the Markdown report (tables plus claim verdicts) "
        "to PATH; exit 3 when any claim fails",
    )
    parser.add_argument(
        "--engine", choices=list(ENGINES), default=None,
        help="simulation engine: 'batch' (default) bulk-applies "
        "uncontended L1 hit runs, 'scalar' dispatches every event "
        "through the protocol model; both are byte-identical "
        "(docs/ENGINE.md), so this only affects wall-clock",
    )
    args = parser.parse_args(argv)

    if args.engine:
        # Same env-var pattern as --sanitize: forked harness workers
        # rebuild their own simulators and inherit the choice.
        os.environ[ENGINE_ENV] = args.engine

    if args.sanitize:
        # The env var (not a flag threaded through call sites) so that
        # forked/spawned harness workers inherit the setting when they
        # rebuild their own Machines.
        os.environ["REPRO_SANITIZE"] = "1"
        print("[sanitize: coherence invariant checks armed]", file=sys.stderr)

    if args.list or not args.experiment:
        print(f"{'experiment id':26s}  {'paper artifact':28s}  description")
        for exp in REGISTRY.values():
            print(f"{exp.exp_id:26s}  {exp.paper_artifact:28s}  {exp.description}")
        return 0

    settings = _build_settings(args)
    if args.analyze or args.analyze_strict:
        if not prescreen(settings, strict=args.analyze_strict):
            if args.analyze_strict:
                # imported here, not at the top: every suite run pays
                # this module's start-up, the pre-screen already paid
                # for the analyzer CLI
                from ..cli import EXIT_FINDINGS

                return EXIT_FINDINGS
    if args.resume and args.no_cache:
        parser.error("--resume needs the cache (its checkpoint journal)")
    targets = list(REGISTRY) if args.experiment == "all" else [args.experiment]
    report = None
    if args.report:
        # imported here: only a report run pays for the claim catalogue
        from .report import Report

        report = Report(settings)
    executor = _build_executor(args)
    set_executor(executor)
    try:
        for exp_id in targets:
            start = time.perf_counter()
            try:
                tables = run_experiment(exp_id, settings)
            except (HarnessError, KeyError, ValueError, ZeroDivisionError):
                if not args.keep_going:
                    raise
                # an experiment whose rendering cannot survive missing
                # points degrades to an explicit partial-failure marker
                elapsed = time.perf_counter() - start
                print(f"[{exp_id}: {elapsed:.1f}s, PARTIAL]", file=sys.stderr)
                if report is not None:
                    report.add(exp_id, None, elapsed)
                print(f"\n### {exp_id} ({REGISTRY[exp_id].paper_artifact})\n")
                print("[not rendered: failed simulation points "
                      "(--keep-going); see stderr and manifest]\n")
                continue
            elapsed = time.perf_counter() - start
            print(f"[{exp_id}: {elapsed:.1f}s]", file=sys.stderr)
            if report is not None:
                report.add(exp_id, tables, elapsed)
            print(f"\n### {exp_id} ({REGISTRY[exp_id].paper_artifact})\n")
            for table in tables:
                if args.chart and chartable(table):
                    print(render_bars(table))
                else:
                    print(table.render())
                print()
    except KeyboardInterrupt:
        # hung workers must not block the exit path; the checkpoint
        # journal and cache already hold every settled point
        executor.terminate()
        print("[interrupted: partial progress checkpointed; rerun with "
              "--resume]", file=sys.stderr)
        raise
    finally:
        set_executor(None)
        executor.close()

    manifest = executor.manifest
    summary = (
        f"[executor: jobs={executor.jobs} points={len(manifest.entries)} "
        f"hits={manifest.hits} misses={manifest.misses}"
    )
    if manifest.retried:
        summary += f" retried={manifest.retried}"
    if manifest.failed:
        summary += f" timeouts={manifest.timeouts} failed={manifest.failed}"
    if executor.cache is not None:
        summary += f" corrupt_evictions={manifest.corrupt_evictions}"
        # merge-write: concurrent sweeps sharing this cache dir each
        # land their entries without erasing the others' audit trail
        path = manifest.write_merged(executor.cache.root / "manifest.json")
        summary += f" manifest={path}"
    print(summary + "]", file=sys.stderr)
    for failure in executor.point_failures:
        print(
            f"[failed point: workload={failure.workload} "
            f"protocol={failure.protocol} kind={failure.kind} "
            f"attempts={failure.attempts} key={failure.key[:12]}: "
            f"{failure.message}]",
            file=sys.stderr,
        )
    if report is not None:
        path = report.write(args.report)
        print(f"[report: {path}: {report.passed}/{len(report.checks)} claims "
              "hold]", file=sys.stderr)
        if report.passed < len(report.checks):
            from ..cli import EXIT_FINDINGS

            return EXIT_FINDINGS
    return 0


if __name__ == "__main__":
    sys.exit(main())
