#!/usr/bin/env python3
"""Capture a blackscholes-like pricing map and save it as a trace file.

The `capture-blackscholes` workload is a data-parallel option pricer:
each thread reads its slice of the spot/strike arrays, charges compute
cycles for the pricing kernel, writes its result, and bumps a shared
progress counter under a lock every few options.

The captured Program round-trips through the chunked, delta-encoded
`.rtb` trace format; this script shows how much smaller the file is
than the events it holds, plus a result-level equality check after
reload.

Run:  python examples/capture/blackscholes.py
"""

import tempfile
from pathlib import Path

from repro import SystemConfig, run_program
from repro.synth import build_workload
from repro.trace.io import load_program, save_program


def main() -> None:
    program = build_workload(
        "capture-blackscholes", num_threads=4, seed=3, scale=1.0
    )
    stats = program.stats()
    print(f"captured {program.name}: {stats.num_events:,} events, "
          f"{stats.num_accesses:,} accesses, {stats.num_regions} regions")

    with tempfile.TemporaryDirectory() as tmp:
        rtb = Path(tmp) / "bs.rtb"
        save_program(program, rtb)
        rtb_size = rtb.stat().st_size
        raw_size = sum(trace.events.nbytes for trace in program.traces)
        print(f"on disk: rtb {rtb_size:,} B for {raw_size:,} B of events "
              f"({raw_size / rtb_size:.1f}x smaller)")

        cfg = SystemConfig(num_cores=4, protocol="arc")
        baseline = run_program(cfg, program).summary()
        reloaded = run_program(cfg, load_program(rtb)).summary()
        print(f"replay from .rtb: cycles {reloaded['cycles']:,.0f}, "
              f"identical to in-memory run: {reloaded == baseline}")


if __name__ == "__main__":
    main()
