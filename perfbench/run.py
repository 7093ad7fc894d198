"""The repo benchmark: paper-suite regeneration and service job latency.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite-cold --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Workloads (see README.md in this directory):

* ``suite-cold``: ``repro-run all --preset bench --jobs 1`` with an empty
  private result cache;
* ``suite-warm``: the same command against a private copy of a filled
  cache, so every point hits;
* ``service-mixed``: 2 closed-loop clients against a 2-worker
  ``repro-serve`` process.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload once untraced and once under
``tracer.py`` and reports the per-layer metrics.  The last line of
stdout is the result object; progress and check failures go to stderr,
and a record of the run (stamp included) to
``.perfbench/results/``.  Exits non-zero, without a result, when the
program under test is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from common import (
    ROOT,
    SCRUBBED_ENV,
    SRC,
    WORK,
    BenchError,
    check_checkout,
    log,
    stamp,
)

WORKLOADS = ("suite-cold", "suite-warm", "service-mixed")
PRESET = "bench"

#: repeats of the server start-up measured as service-mixed's setup_s
SERVICE_SETUP_REPEATS = 3


def _trace_path(workload: str, seed: int) -> Path:
    directory = WORK / "traces"
    directory.mkdir(parents=True, exist_ok=True)
    return directory / f"{workload}-seed{seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"


def run_suite(workload: str, seed: int, seconds: float, trace: bool,
              *, preset: str = PRESET, expect_digest: str | None = None) -> dict:
    import metrics as m
    from suite import Suite, accounting, end_to_end, import_seconds, load_reference, tracer_argv

    reference = load_reference()
    warm = workload == "suite-warm"
    suite = Suite(preset, seed, warm, reference, traced=trace,
                  expect_digest=expect_digest)
    try:
        suite.setup()
        if not trace:
            invocations = suite.measure(seconds)
            attempted, failed = accounting(invocations)
            return _result(attempted, failed, [],
                           m.render(end_to_end(suite, invocations), m.END_TO_END))
        untraced = suite.run_one()
        out = _trace_path(workload, seed)
        traced = suite.run_one(tracer_argv(out))
        errors: list[str] = []
        values = dict.fromkeys(m.PER_LAYER, 0.0)
        if out.is_file():
            trace_data = json.loads(out.read_text())
            values = m.per_layer(trace_data, {
                "harness.import_s": import_seconds(suite.env),
                "tracing.overhead_s": traced.wall_s - untraced.wall_s,
            })
            errors += m.check_sample_coverage(trace_data)
            if warm:
                expected = dict.fromkeys(
                    (*m.SIMULATED_COUNTS, *m.CALL_COUNTS), 0)
            else:
                expected = reference["counts"].get(preset, {}).get(str(suite.seed))
            errors += check_counts(values, expected,
                                   f"{preset} seed {suite.seed}")
        else:
            errors.append("the traced run exported no trace")
        for error in errors:
            log(f"check failed: {error}")
        attempted, failed = accounting([untraced, traced])
        return _result(attempted, failed, errors, m.render(values, m.PER_LAYER))
    finally:
        suite.close()


def check_counts(values: dict, expected: dict | None, label: str) -> list[str]:
    """Exact counts (``metrics.EXACT_COUNTS``) must equal the committed
    ones; ``expected`` None (nothing committed for this size) skips."""
    if expected is None:
        log(f"no committed counts for {label}; counts not checked")
        return []
    return [
        f"{name} = {values[name]} but the reference for {label} says {want}"
        for name, want in expected.items()
        if values[name] != want
    ]


def run_service(seed: int, seconds: float, trace: bool) -> dict:
    import metrics as m
    from service_load import ServiceRun
    from suite import import_seconds, load_reference

    run = ServiceRun(seed, seconds)
    try:
        if not trace:
            server = run.setup(SERVICE_SETUP_REPEATS)
            result = run.measure(server)
            return _result(result.planned, result.failed, result.errors,
                           m.render(result.end_to_end(run.setup_times),
                                    m.END_TO_END))
        untraced = run.measure(run.setup(1), verify=False)
        out = _trace_path("service-mixed", seed)
        traced = run.measure(run.start(trace_out=out))
        errors: list[str] = []
        values = dict.fromkeys(m.PER_LAYER, 0.0)
        if out.is_file():
            trace_data = json.loads(out.read_text())
            values = m.per_layer(trace_data, {
                **traced.client_metrics(),
                "harness.import_s": import_seconds(run.env),
                "tracing.overhead_s": traced.wall_s - untraced.wall_s,
            })
            errors += m.check_sample_coverage(trace_data)
            errors += check_counts(
                values, run.reference_counts(load_reference()),
                f"{run.jobs_per_client} jobs per client, plan {run.plan_seed}",
            )
        else:
            errors.append("the traced server exported no trace")
        for error in errors:
            log(f"check failed: {error}")
        return _result(untraced.planned + traced.planned,
                       untraced.failed + traced.failed,
                       untraced.errors + traced.errors + errors,
                       m.render(values, m.PER_LAYER))
    finally:
        run.close()


def _result(attempted: int, failed: int, errors: list[str], metrics: dict) -> dict:
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "service-mixed":
        return run_service(seed, seconds, trace)
    return run_suite(workload, seed, seconds, trace)


def _record(args, result: dict, run_stamp: dict, wall: float) -> None:
    directory = WORK / "results"
    directory.mkdir(parents=True, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}.json")
    (directory / name).write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "stamp": run_stamp, "run_wall_s": wall, "result": result,
    }, indent=1, sort_keys=True))


def _prepare_process() -> None:
    """Measure the checkout's sources, never an installed copy, and keep
    inherited knobs out of this process's own library calls."""
    check_checkout()
    sys.path.insert(0, str(SRC))
    for key in SCRUBBED_ENV:
        os.environ.pop(key, None)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.chdir(ROOT)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="self-test on the quick preset and a few dozen service jobs",
    )
    args = parser.parse_args(argv)
    try:
        _prepare_process()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        from smoke import smoke

        return smoke()
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")

    run_stamp = stamp()
    log(f"stamp: {json.dumps(run_stamp, sort_keys=True)}")
    if run_stamp["loaded"]:
        log(f"warning: load average {run_stamp['loadavg'][0]} exceeds "
            f"nproc {run_stamp['nproc']} at start; figures may be skewed")
    start = time.perf_counter()
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _record(args, result, run_stamp, time.perf_counter() - start)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
