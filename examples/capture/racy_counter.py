#!/usr/bin/env python3
"""Capture an under-synchronized counter and check detectors vs oracle.

The `capture-racy-counter` workload increments a shared counter from
every thread but only takes the lock on every fourth increment — the
rest are bare read-modify-writes.  The capture session's
``switch_every`` preemption interleaves the threads between accesses,
so the recorded schedule really does overlap the racy regions.

Replaying under CE / CE+ / ARC shows the detectors firing; the
ground-truth oracle (which recomputes conflicts from the schedule log,
independent of any protocol) confirms every report is a true overlap:

    detector reports  ⊆  oracle overlap conflicts

Run:  python examples/capture/racy_counter.py
"""

from repro.common.config import SystemConfig
from repro.core.oracle import ScheduleRecorder, detected_keys, overlap_conflicts
from repro.core.simulator import Simulator
from repro.synth import build_workload


def main() -> None:
    program = build_workload(
        "capture-racy-counter", num_threads=4, seed=2, scale=0.4
    )
    stats = program.stats()
    print(f"captured {program.name}: {stats.num_events:,} events, "
          f"{stats.num_regions} regions, {stats.shared_lines} shared line(s)")

    for protocol in ("ce", "ce+", "arc"):
        recorder = ScheduleRecorder()
        cfg = SystemConfig(num_cores=4, protocol=protocol)
        result = Simulator(cfg, program, recorder=recorder).run()
        overlap = overlap_conflicts(recorder)
        detected = detected_keys(result.stats.conflicts)
        contained = detected <= set(overlap)
        print(f"  {protocol:4s}: {len(detected)} conflicts reported, "
              f"{len(overlap)} true overlaps, detected ⊆ overlap: {contained}")


if __name__ == "__main__":
    main()
