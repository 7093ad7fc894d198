"""Static analyzer vs brute-force oracle: wall-time on a large trace.

The brute-force ground truth needs a full simulation (to record the
schedule) plus the quadratic region-overlap scan in
``core.oracle.overlap_conflicts``.  The static analyzer answers the
same question — which region pairs can conflict — directly from the
trace, schedule-free.  This benchmark times both on a large racy
synthetic trace and asserts the analyzer is at least 5x faster, while
the realized run's conflicts stay inside the predictions.

Run standalone (``python benchmarks/bench_analysis.py``) for a timing
report, or through pytest.
"""

from __future__ import annotations

import sys
import time

from repro.analysis import build_hb, region_conflicts
from repro.common.config import SystemConfig
from repro.core.oracle import ScheduleRecorder, overlap_conflicts
from repro.core.simulator import Simulator
from repro.synth import build_workload

WORKLOAD = "racy-writers"
THREADS = 8
SCALE = 0.5


def bench_analysis(min_speedup: float = 5.0) -> dict:
    program = build_workload(WORKLOAD, num_threads=THREADS, seed=1, scale=SCALE)

    start = time.perf_counter()
    hb = build_hb(program)
    predicted = region_conflicts(program, hb)
    analyzer_s = time.perf_counter() - start

    start = time.perf_counter()
    recorder = ScheduleRecorder()
    Simulator(
        SystemConfig(num_cores=THREADS, protocol="mesi"), program,
        recorder=recorder,
    ).run()
    overlap = overlap_conflicts(recorder)
    oracle_s = time.perf_counter() - start

    assert set(overlap) <= set(predicted), (
        "oracle found conflicts the analyzer missed"
    )
    speedup = oracle_s / analyzer_s
    assert speedup >= min_speedup, (
        f"analyzer speedup {speedup:.1f}x below {min_speedup:.1f}x "
        f"(analyzer {analyzer_s:.3f}s, oracle {oracle_s:.3f}s)"
    )
    return {
        "events": program.num_events(),
        "analyzer_s": analyzer_s,
        "oracle_s": oracle_s,
        "speedup": speedup,
        "predicted": len(predicted),
        "observed": len(overlap),
    }


def test_bench_analysis():
    """Pytest entry: same answer envelope, at least 5x faster."""
    bench_analysis(min_speedup=5.0)


def main() -> int:
    summary = bench_analysis(min_speedup=5.0)
    print(
        f"{WORKLOAD} x{THREADS} ({summary['events']:,} events): "
        f"analyzer {summary['analyzer_s']*1e3:.0f}ms "
        f"({summary['predicted']} predicted region conflicts) vs "
        f"simulate+oracle {summary['oracle_s']*1e3:.0f}ms "
        f"({summary['observed']} realized) — {summary['speedup']:.0f}x faster"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
