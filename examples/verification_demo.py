#!/usr/bin/env python3
"""Verification workflow: oracles and race injection.

The library doesn't just *implement* the conflict detectors — it can
check them against ground truth.  This example:

1. records a run's schedule (every access + region interval),
2. computes the ground-truth conflicts by brute force, under both CE
   semantics and region-overlap semantics,
3. shows the detectors agree with the oracle on a racy workload,
4. plants a race into a conflict-free workload (`inject_race`) and
   shows every detector catches it on exactly the planted line.

Run:  python examples/verification_demo.py
"""

from repro import SystemConfig
from repro.core.oracle import (
    ScheduleRecorder,
    ce_conflicts,
    detected_keys,
    overlap_conflicts,
)
from repro.core.simulator import Simulator
from repro.synth import build_workload
from repro.synth.racy import inject_race, injected_line
from repro.tools.view import summary_table

THREADS = 4
DETECTORS = ("ce", "ce+", "arc")


def recorded_run(protocol: str, program):
    recorder = ScheduleRecorder()
    result = Simulator(
        SystemConfig(num_cores=THREADS, protocol=protocol), program,
        recorder=recorder,
    ).run()
    return result, recorder


def main() -> None:
    print("=== 1-3. oracle vs detectors on a racy workload ===")
    program = build_workload("racy-writers", num_threads=THREADS, seed=3, scale=0.1)
    for protocol in DETECTORS:
        result, recorder = recorded_run(protocol, program)
        overlap = set(overlap_conflicts(recorder))
        ce_truth = set(ce_conflicts(recorder))
        detected = detected_keys(result.stats.conflicts)
        print(
            f"{protocol:4s}: detected {len(detected):3d} region pairs | "
            f"oracle: {len(ce_truth):3d} (CE semantics) .. "
            f"{len(overlap):3d} (overlap semantics) | "
            f"detected ⊆ overlap: {detected <= overlap}"
        )

    print("\nconflict report (ARC run):")
    result, _ = recorded_run("arc", program)
    print(summary_table(result.stats.conflicts).render())

    print("\n=== 4. metamorphic race injection ===")
    clean = build_workload("pipeline-ferret", num_threads=THREADS, seed=1, scale=0.1)
    racy = inject_race(clean)
    line = injected_line(clean)
    print(f"planted one race on line {line:#x} in '{clean.name}'")
    for protocol in DETECTORS:
        before, _ = recorded_run(protocol, clean)
        after, _ = recorded_run(protocol, racy)
        lines = {c.line_addr for c in after.stats.conflicts}
        print(
            f"{protocol:4s}: clean run {before.num_conflicts} conflicts, "
            f"injected run {after.num_conflicts} on lines "
            f"{[hex(l) for l in sorted(lines)]}"
        )


if __name__ == "__main__":
    main()
