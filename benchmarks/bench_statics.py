"""Static analyzer benchmark: whole-suite analysis wall-clock budget.

``repro staticlint`` is meant to run as a pre-capture gate (CI's
static-analysis job runs it on every push), so the whole shipped
capture suite must analyze fast: the gate asserts that statically
analyzing **all five** ``capture-*`` workloads — parse, abstract
interpretation of every thread, pair classification, line classes —
fits inside the budget committed in ``BENCH_statics.json`` (default
5 seconds, measured ~0.5-1.5s on an idle machine).

Timings only count after every report reproduces its expected verdict,
so a fast-but-wrong analyzer can never "pass".  Per-workload timings
and site/pair counts are recorded in the snapshot for trend-watching.

Run standalone (``python benchmarks/bench_statics.py``) to print the
table and refresh ``BENCH_statics.json``; the pytest entry enforces the
committed budget.
"""

from __future__ import annotations

import sys
import time

from repro.statics import analyze_workload, build_report

DEFAULT_BUDGET_S = 5.0

#: (workload, scale) -> expected verdict; scale 0.2 keeps racy-counter
#: inside the unroll limit so its MUST classification is exercised too
EXPECTED = {
    ("capture-histogram", 0.2): "no-conflict",
    ("capture-blackscholes", 0.2): "no-conflict",
    ("capture-pipeline", 0.2): "no-conflict",
    ("capture-workqueue", 0.2): "may-conflict",
    ("capture-racy-counter", 0.2): "must-conflict",
}


def bench_statics(budget_s: float) -> dict:
    rows = []
    total_s = 0.0
    for (name, scale), expected in sorted(EXPECTED.items()):
        start = time.perf_counter()
        report = build_report(
            analyze_workload(name, num_threads=4, seed=1, scale=scale)
        )
        elapsed = time.perf_counter() - start
        assert report.verdict == expected, (
            f"{name}: verdict {report.verdict!r} != expected {expected!r} — "
            "timing a wrong analyzer is meaningless"
        )
        total_s += elapsed
        rows.append({
            "workload": name,
            "scale": scale,
            "verdict": report.verdict,
            "sites": len(report.analysis.sites),
            "objects": len(report.analysis.objects),
            "pairs": len(report.pairs),
            "seconds": round(elapsed, 4),
        })
    assert total_s <= budget_s, (
        f"static analysis of the capture suite took {total_s:.2f}s, over "
        f"the committed {budget_s:.1f}s budget"
    )
    return {
        # the committed gate value lives under "floor" (the key
        # conftest.committed_floor reads); here it is a seconds *budget*
        "floor": budget_s,
        "total_s": round(total_s, 4),
        "workloads": rows,
    }


def test_bench_statics():
    """Pytest entry (CI static-analysis job): the whole capture suite
    must analyze inside the budget committed in BENCH_statics.json."""
    from conftest import committed_floor

    bench_statics(committed_floor("statics", DEFAULT_BUDGET_S))


def main() -> int:
    from conftest import committed_floor, record_bench

    payload = bench_statics(committed_floor("statics", DEFAULT_BUDGET_S))
    for row in payload["workloads"]:
        print(
            f"{row['workload']:<24} scale {row['scale']:<4} "
            f"{row['verdict']:<13} {row['objects']:>3} objects "
            f"{row['sites']:>5} sites {row['pairs']:>3} pairs  "
            f"{row['seconds']:6.3f}s"
        )
    path = record_bench("statics", payload)
    print(
        f"total {payload['total_s']:.3f}s of {payload['floor']:.1f}s "
        f"budget — snapshot written to {path}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
