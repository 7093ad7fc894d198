"""Crash-safety benchmark: fsync discipline overhead and salvage speed.

Two gates, budgets committed in ``BENCH_crashsafe.json``:

* **fsync overhead** — a warm, fully-cached sweep (all hits; the
  durable writes are the journal appends and the manifest merge) run
  with the fsync discipline on must cost less than ``floor`` times the
  same sweep with ``$REPRO_NO_FSYNC`` set (default 1.3x).  Durability
  is supposed to be metadata-cheap; this catches an accidental
  fsync-per-byte regression.
* **salvage speed** — :func:`repro.trace.binio.salvage_rtb` over a
  truncated trace whose valid prefix holds 73k+ events must finish
  inside ``salvage_budget_s`` (default 1 second).  The offline repair
  path has to stay usable on real capture files.

Both measurements verify their outputs before timing counts (hit
counts, salvaged event totals) — a fast-but-wrong path can never pass.

Run standalone (``python benchmarks/bench_crashsafe.py``) to print the
numbers and refresh ``BENCH_crashsafe.json``; the pytest entry (CI's
crash-recovery job) enforces the committed budgets.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.common.config import SystemConfig
from repro.common.durable import FSYNC_ENV
from repro.harness import Executor, ResultCache, SimPoint, WorkloadSpec
from repro.harness.checkpoint import CHECKPOINT_NAME, Checkpoint
from repro.trace.binio import salvage_rtb, save_program_bin, scan_rtb
from repro.trace.events import EVENT_DTYPE, ThreadTrace
from repro.trace.program import Program

DEFAULT_FSYNC_RATIO = 1.3
DEFAULT_SALVAGE_BUDGET_S = 1.0

#: events in the salvage victim's valid prefix (the issue's bar: 73k)
SALVAGE_EVENTS = 75_000


#: sweep width: enough points that per-point work (key, lookup,
#: unpickle) dominates, as in real sweeps — the fsync discipline's cost
#: is O(1) per sweep thanks to the journal's group commit
SWEEP_POINTS = 24


def _sweep_points():
    cfg = SystemConfig(num_cores=2)
    return [
        SimPoint(cfg, WorkloadSpec.make(
            "lock-counter", num_threads=2, seed=s, scale=0.03))
        for s in range(1, SWEEP_POINTS + 1)
    ]


def _warm_sweep_seconds(root: Path, repeats: int = 5) -> float:
    """Best-of-N wall clock for an all-hits sweep with journaling."""
    points = _sweep_points()
    best = float("inf")
    for _ in range(repeats):
        cache = ResultCache(root)
        checkpoint = Checkpoint(root / CHECKPOINT_NAME)
        start = time.perf_counter()
        with Executor(jobs=1, cache=cache, checkpoint=checkpoint) as ex:
            ex.run_points(points)
        ex.manifest.write_merged(root / "manifest.json")
        best = min(best, time.perf_counter() - start)
        assert cache.stats.hits == len(points), "sweep must be fully warm"
    return best


def bench_fsync_overhead(root: Path, max_ratio: float) -> dict:
    """Warm sweep with the fsync discipline on vs. off."""
    # populate once (timing only warm runs keeps simulation cost out)
    cache = ResultCache(root)
    with Executor(jobs=1, cache=cache) as ex:
        ex.run_points(_sweep_points())
    assert cache.stats.stores == SWEEP_POINTS

    assert not os.environ.get(FSYNC_ENV), "run with fsyncs enabled"
    fsync_s = _warm_sweep_seconds(root)
    os.environ[FSYNC_ENV] = "1"
    try:
        nofsync_s = _warm_sweep_seconds(root)
    finally:
        del os.environ[FSYNC_ENV]
    ratio = fsync_s / nofsync_s
    assert ratio < max_ratio, (
        f"fsync discipline costs {ratio:.2f}x on a warm cached sweep, "
        f"over the committed {max_ratio:.2f}x budget "
        f"({fsync_s * 1e3:.1f}ms vs {nofsync_s * 1e3:.1f}ms)"
    )
    return {
        "fsync_ms": round(fsync_s * 1e3, 3),
        "nofsync_ms": round(nofsync_s * 1e3, 3),
        "ratio": round(ratio, 3),
    }


def _make_big_trace(path: Path) -> None:
    """A two-thread trace with > SALVAGE_EVENTS events, built directly
    from event arrays (TraceBuilder is needlessly slow at this size)."""
    traces = []
    for tid in range(2):
        count = SALVAGE_EVENTS // 2 + 2_000
        events = np.zeros(count, dtype=EVENT_DTYPE)
        events["kind"][:] = 1  # writes
        events["addr"][:] = (np.arange(count, dtype=np.uint64) * 8) % (1 << 20)
        events["size"][:] = 8
        events["gap"][:] = 1
        traces.append(ThreadTrace(events))
    save_program_bin(
        Program(traces, name="salvage-bench"), path, chunk_events=4096
    )


def bench_salvage(root: Path, budget_s: float) -> dict:
    root.mkdir(parents=True, exist_ok=True)
    victim = root / "big.rtb"
    _make_big_trace(victim)
    blob = victim.read_bytes()
    victim.write_bytes(blob[: int(len(blob) * 0.97)])  # detlint: ok - bench
    report = scan_rtb(victim)
    assert not report.ok and report.events >= SALVAGE_EVENTS - 4_096, (
        f"victim's valid prefix holds {report.events} events — the "
        f"benchmark must salvage a {SALVAGE_EVENTS}-event-class trace"
    )
    start = time.perf_counter()
    salvage_rtb(victim)
    elapsed = time.perf_counter() - start
    assert scan_rtb(victim).ok, "salvaged trace must verify clean"
    assert elapsed <= budget_s, (
        f"salvaging a {report.events}-event trace took {elapsed:.2f}s, "
        f"over the committed {budget_s:.1f}s budget"
    )
    return {
        "events": report.events,
        "torn_bytes": report.torn_bytes,
        "seconds": round(elapsed, 4),
    }


def bench_crashsafe(tmp_root: Path, max_ratio: float, budget_s: float) -> dict:
    return {
        "floor": max_ratio,
        "salvage_budget_s": budget_s,
        "fsync": bench_fsync_overhead(tmp_root / "sweep", max_ratio),
        "salvage": bench_salvage(tmp_root / "salvage", budget_s),
    }


def _committed_salvage_budget(default: float) -> float:
    path = Path(__file__).resolve().parent.parent / "BENCH_crashsafe.json"
    if path.exists():
        return float(
            json.loads(path.read_text()).get("salvage_budget_s", default)
        )
    return default


def test_bench_crashsafe(tmp_path):
    """Pytest entry (CI crash-recovery job): fsync overhead and salvage
    speed must clear the budgets committed in BENCH_crashsafe.json."""
    from conftest import committed_floor

    bench_crashsafe(
        tmp_path,
        committed_floor("crashsafe", DEFAULT_FSYNC_RATIO),
        _committed_salvage_budget(DEFAULT_SALVAGE_BUDGET_S),
    )


def main() -> int:
    import tempfile

    from conftest import committed_floor, record_bench

    with tempfile.TemporaryDirectory() as tmp:
        payload = bench_crashsafe(
            Path(tmp),
            committed_floor("crashsafe", DEFAULT_FSYNC_RATIO),
            _committed_salvage_budget(DEFAULT_SALVAGE_BUDGET_S),
        )
    fsync, salvage = payload["fsync"], payload["salvage"]
    print(
        f"warm sweep: {fsync['fsync_ms']:.1f}ms with fsync, "
        f"{fsync['nofsync_ms']:.1f}ms without — {fsync['ratio']:.2f}x "
        f"(budget {payload['floor']:.2f}x)"
    )
    print(
        f"salvage: {salvage['events']} events in {salvage['seconds']:.3f}s "
        f"(budget {payload['salvage_budget_s']:.1f}s)"
    )
    path = record_bench("crashsafe", payload)
    print(f"snapshot written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
