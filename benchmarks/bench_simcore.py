"""Simulation-core engine benchmark: batch vs scalar wall-clock.

The gate workload is ``compute-water`` — dispatch-bound by design (see
its module docstring): after cache warm-up nearly every event is an L1
hit to thread-private or read-only-shared data, so scalar wall-clock is
pure per-event protocol dispatch and the batch engine's bulk
application shows its full advantage.  The batch engine must beat
scalar by at least the floor committed in ``BENCH_simcore.json``
(default 5x); timings only count after the two engines' renderings are
checked byte-identical, so a fast-but-wrong engine can never "pass".

Report-only rows cover the other regime — residue-bound workloads
(migratory sharing, stencil halos) where the adaptive bail-out caps the
downside near 1x (docs/ENGINE.md discusses the trade-off).  They are
recorded in the snapshot but carry no assertion: their ratios hover
around parity and machine noise would make a gate flaky.

Run standalone (``python benchmarks/bench_simcore.py``) to print the
table and refresh ``BENCH_simcore.json``; the pytest entry enforces the
committed floor (CI's bench smoke step).
"""

from __future__ import annotations

import sys
import time

from repro import ProtocolKind, SystemConfig
from repro.core.batch import BatchSimulator
from repro.core.results import render_result
from repro.core.simulator import Simulator
from repro.synth.suite import build_workload

DEFAULT_FLOOR = 5.0

#: the dispatch-heavy gate point (measured ~10-19x on an idle machine,
#: so a 5x floor leaves headroom for timing noise and slow CI runners)
GATE = ("compute-water", 8, 2.0, ProtocolKind.CEPLUS)

#: residue-bound contrast points, recorded but not gated
REPORT = [
    ("stencil-ocean", 8, 0.5, ProtocolKind.CEPLUS),
    ("migratory-token", 8, 0.25, ProtocolKind.MESI),
]


def _measure(name, threads, scale, kind, repeats=2):
    """Best-of-``repeats`` wall-clock per engine on fresh simulators,
    with the byte-identity check folded in (renderings of the first
    timed run of each engine must match)."""
    program = build_workload(name, num_threads=threads, seed=1, scale=scale)
    cfg = SystemConfig(num_cores=threads).with_protocol(kind)

    def best(make):
        times, texts = [], []
        for _ in range(repeats):
            sim = make()
            start = time.perf_counter()
            result = sim.run()
            times.append(time.perf_counter() - start)
            texts.append(render_result(result))
        return min(times), texts[0]

    scalar_s, scalar_text = best(lambda: Simulator(cfg, program))
    batch_s, batch_text = best(lambda: BatchSimulator(cfg, program))
    assert batch_text == scalar_text, (
        f"{name}/{kind.value}: engines diverged — timing is meaningless"
    )
    return {
        "workload": name,
        "protocol": kind.value,
        "threads": threads,
        "scale": scale,
        "events": program.num_events(),
        "scalar_s": round(scalar_s, 4),
        "batch_s": round(batch_s, 4),
        "speedup": round(scalar_s / batch_s, 2),
    }


def bench_simcore(floor: float) -> dict:
    gate = _measure(*GATE)
    assert gate["speedup"] >= floor, (
        f"batch engine below committed floor on {gate['workload']}: "
        f"{gate['speedup']:.2f}x < {floor:.1f}x "
        f"(scalar {gate['scalar_s']:.2f}s, batch {gate['batch_s']:.2f}s)"
    )
    return {
        "floor": floor,
        "gate": gate,
        "report": [_measure(*point) for point in REPORT],
    }


def test_bench_simcore():
    """Pytest entry (CI bench smoke): the batch engine must clear the
    floor committed in BENCH_simcore.json on the dispatch-heavy gate."""
    from conftest import committed_floor

    bench_simcore(committed_floor("simcore", DEFAULT_FLOOR))


def main() -> int:
    from conftest import committed_floor, record_bench

    payload = bench_simcore(committed_floor("simcore", DEFAULT_FLOOR))
    rows = [payload["gate"], *payload["report"]]
    for row in rows:
        tag = "GATE" if row is payload["gate"] else "    "
        print(
            f"{tag} {row['workload']:<24} {row['protocol']:<5} "
            f"{row['events']:>8} events  scalar {row['scalar_s']:6.2f}s  "
            f"batch {row['batch_s']:6.2f}s  {row['speedup']:5.2f}x"
        )
    path = record_bench("simcore", payload)
    print(f"floor {payload['floor']:.1f}x — snapshot written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
