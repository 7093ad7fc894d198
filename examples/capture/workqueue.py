#!/usr/bin/env python3
"""Capture a work-stealing queue, save it, and replay it from disk.

The `capture-workqueue` workload gives each thread a deque of tasks
(deliberately uneven shares); idle threads steal from seeded victims.
Which thread runs which task depends entirely on the schedule, which is
why capture serializes the threads deterministically: a saved capture
stands in for the live program.

This script captures once, saves the trace as an `.rtb` file, loads it
back and checks that replaying the file gives the same result as
replaying the capture held in memory.

Run:  python examples/capture/workqueue.py
"""

import tempfile
from pathlib import Path

from repro import SystemConfig, run_program
from repro.capture import capture_workqueue
from repro.trace.io import load_program, save_program

THREADS = 4
SEED = 9


def main() -> None:
    cfg = SystemConfig(num_cores=THREADS, protocol="ce+")
    program = capture_workqueue(THREADS, SEED, 1.0)
    in_memory = run_program(cfg, program).summary()

    with tempfile.TemporaryDirectory() as tmp:
        rtb = Path(tmp) / "wq.rtb"
        save_program(program, rtb)
        print(f"saved capture: {rtb.stat().st_size:,} B on disk, "
              f"{program.num_events():,} events")
        from_disk = run_program(cfg, load_program(rtb)).summary()

    print(f"replay cycles: from disk {from_disk['cycles']:,.0f}, "
          f"in-memory {in_memory['cycles']:,.0f}")
    print(f"saved replay identical to in-memory replay: "
          f"{from_disk == in_memory}")


if __name__ == "__main__":
    main()
