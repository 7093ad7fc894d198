"""Engine A/B report: paired, alternating scalar/batch suite runs.

    python3 perfbench/ab.py [--pairs 5] [--seed 1]

Not a workload, and it adds no program flag: it runs the suite-cold
command (``repro-run all --preset bench --jobs 1``, empty private
cache) with repro-run's existing ``--engine scalar`` and ``--engine
batch``, alternating which engine goes first in each pair.  Both
engines must print the committed reference bytes.  The same number of
pairs then runs ``fig_perf_16`` at the full preset (about 80 s a run),
whose stdout must agree between the engines.

Prints, per case and engine, the run count, median and quartiles of
wall seconds, the pairs each engine won, and ``core.fastpath_frac``
from one traced suite run per engine.  The report is also written to
``.perfbench/results/ab-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from common import WORK, hermetic_env, log, remove_dir, scratch_dir
from run import _prepare_process
from suite import invoke, load_reference, suite_seed, tracer_argv

ENGINES = ("scalar", "batch")


def _pairs(case: str, count: int, preset: str, seed: int, expect) -> dict:
    """Alternating pairs; returns per-engine wall seconds and pair wins."""
    walls: dict[str, list[float]] = {engine: [] for engine in ENGINES}
    wins = dict.fromkeys(ENGINES, 0)
    experiment = "all" if case == "suite-cold" else "fig_perf_16"
    for index in range(count):
        order = ENGINES if index % 2 == 0 else ENGINES[::-1]
        pair = {}
        for engine in order:
            tmp = scratch_dir("ab-")
            try:
                inv = invoke([], preset, seed, tmp, hermetic_env(tmp),
                             expect_digest=expect, warm=False,
                             experiment=experiment,
                             extra=("--engine", engine))
            finally:
                remove_dir(tmp)
            if inv.errors:
                raise SystemExit(f"{case} {engine}: {inv.errors}")
            pair[engine] = inv
            walls[engine].append(inv.wall_s)
            log(f"{case} pair {index + 1}/{count} {engine}: {inv.wall_s:.2f}s")
        if pair["scalar"].digest != pair["batch"].digest:
            raise SystemExit(f"{case}: the engines printed different stdout")
        faster = min(ENGINES, key=lambda e: pair[e].wall_s)
        wins[faster] += 1
    return {"walls": walls, "wins": wins}


def _fastpath(engine: str, preset: str, seed: int, expect: str) -> float:
    import metrics as m

    tmp = scratch_dir("ab-trace-")
    out = tmp / "trace.json"
    try:
        inv = invoke(tracer_argv(out), preset, seed, tmp, hermetic_env(tmp),
                     expect_digest=expect, warm=False,
                     extra=("--engine", engine))
        if inv.errors:
            raise SystemExit(f"traced {engine}: {inv.errors}")
        values = m.per_layer(json.loads(out.read_text()), {})
    finally:
        remove_dir(tmp)
    return values["core.fastpath_frac"]


def _summary(values: list[float]) -> dict:
    quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"n": len(values), "median_s": statistics.median(values),
            "q1_s": quartiles[0], "q3_s": quartiles[2]}


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench-ab")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    _prepare_process()
    reference = load_reference()
    seed = suite_seed(args.seed, "bench", reference, traced=True)
    expect = reference["suite"]["bench"][str(seed)]

    report: dict = {"seed": seed, "cases": {}}
    report["cases"]["suite-cold"] = _pairs(
        "suite-cold", args.pairs, "bench", seed, expect)
    report["cases"]["fig_perf_16 full"] = _pairs(
        "fig_perf_16 full", args.pairs, "full", seed, None)
    report["fastpath_frac"] = {
        engine: _fastpath(engine, "bench", seed, expect) for engine in ENGINES
    }

    print(f"{'case':18s} {'engine':7s} {'n':>3s} {'median_s':>9s} "
          f"{'q1_s':>8s} {'q3_s':>8s} {'wins':>5s} {'fastpath':>9s}")
    for case, data in report["cases"].items():
        for engine in ENGINES:
            row = _summary(data["walls"][engine])
            data.setdefault("summary", {})[engine] = row
            fastpath = (f"{report['fastpath_frac'][engine]:9.4f}"
                        if case == "suite-cold" else f"{'':9s}")
            print(f"{case:18s} {engine:7s} {row['n']:3d} {row['median_s']:9.2f} "
                  f"{row['q1_s']:8.2f} {row['q3_s']:8.2f} "
                  f"{data['wins'][engine]:5d} {fastpath}")
    directory = WORK / "results"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"ab-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True))
    log(f"report written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
