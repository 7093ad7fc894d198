"""Capture CLI: record real-program workloads and replay their traces.

Front end for :mod:`repro.capture`.  ``capture`` runs one of the
registered ``capture-*`` workloads (a real multithreaded Python program
instrumented with traced memory and sync proxies) and writes the
recorded trace as an ``.rtb`` file.  ``replay`` simulates a recorded
trace (or a workload captured on the fly) under one or all protocols.
``summary`` prints the Table II-style characteristics of a capture.

Usage::

    repro capture capture capture-histogram -o hist.rtb
    repro capture replay hist.rtb --protocol all
    repro capture summary hist.rtb
"""

from __future__ import annotations

import argparse
from pathlib import Path

from ..capture.workloads import CAPTURE_WORKLOADS
from ..cli import (
    add_format,
    add_target_args,
    emit,
    parse_params,
    pow2_cores,
    program_from_args,
)
from ..common.config import SystemConfig
from ..core.api import ALL_PROTOCOLS, run_program
from ..harness.tables import TextTable
from ..synth.base import generate
from ..trace.io import BIN_SUFFIX, save_program
from ..trace.program import Program


def _capture(args: argparse.Namespace) -> Program:
    if args.target not in CAPTURE_WORKLOADS:
        known = ", ".join(sorted(CAPTURE_WORKLOADS))
        raise SystemExit(
            f"unknown capture workload {args.target!r} (known: {known})"
        )
    return generate(
        args.target, num_threads=args.threads, seed=args.seed,
        scale=args.scale, **parse_params(args.param),
    )


def _load_or_capture(args: argparse.Namespace) -> Program:
    """A trace file, or a fresh capture of a ``capture-*`` workload."""
    if Path(args.target).is_file():
        return program_from_args(args)
    return _capture(args)


def cmd_capture(args: argparse.Namespace) -> int:
    out = Path(args.output)
    if out.suffix != BIN_SUFFIX:
        raise SystemExit(f"output {out.name!r} must end in {BIN_SUFFIX}")
    program = _capture(args)
    save_program(program, out)
    stats = program.stats()
    print(
        f"captured {program.name}: {stats.num_events} events across "
        f"{stats.num_threads} threads -> {out} ({out.stat().st_size} bytes)"
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    program = _load_or_capture(args)
    cores = args.cores or pow2_cores(program.num_threads)
    protocols = (
        list(ALL_PROTOCOLS) if args.protocol == "all" else [args.protocol]
    )
    table = TextTable(
        f"Replay: {program.name} ({program.num_threads} threads, "
        f"{cores} cores)",
        ["protocol", "cycles", "l1_miss_rate", "flit_hops", "conflicts"],
    )
    report: dict[str, dict[str, float]] = {}
    for protocol in protocols:
        cfg = SystemConfig(num_cores=cores, protocol=protocol)
        result = run_program(cfg, program)
        summary = result.summary()
        report[result.protocol.value] = summary
        table.add_row(
            result.protocol.value,
            summary["cycles"],
            round(summary["l1_miss_rate"], 4),
            summary["flit_hops"],
            summary["conflicts"],
        )
    emit(args.format, {"target": program.name, "runs": report}, table.render())
    return 0


def cmd_summary(args: argparse.Namespace) -> int:
    program = _load_or_capture(args)
    stats = program.stats()
    table = TextTable(
        f"Capture: {program.name}", ["characteristic", "value"]
    )
    table.add_row("threads", stats.num_threads)
    table.add_row("events", stats.num_events)
    table.add_row("accesses", stats.num_accesses)
    table.add_row("writes", stats.num_writes)
    table.add_row("sync ops", stats.num_sync_ops)
    table.add_row("regions", stats.num_regions)
    table.add_row("distinct lines", stats.num_lines)
    table.add_row("shared lines", stats.shared_lines)
    print(table.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro capture")
    subs = parser.add_subparsers(dest="command", required=True)

    cap = subs.add_parser(
        "capture", help="record a capture-* workload to a trace file"
    )
    add_target_args(cap, threads=4, target_help="capture workload name")
    cap.add_argument(
        "-o", "--output", required=True,
        help=f"trace path (must end in {BIN_SUFFIX})",
    )
    cap.set_defaults(func=cmd_capture)

    rep = subs.add_parser(
        "replay", help="simulate a recorded trace or fresh capture"
    )
    add_target_args(rep, threads=4)
    rep.add_argument(
        "--protocol", choices=("mesi", "ce", "ce+", "arc", "all"),
        default="all",
    )
    rep.add_argument(
        "--cores", type=int, default=0,
        help="core count (default: threads rounded up to a power of two)",
    )
    add_format(rep)
    rep.set_defaults(func=cmd_replay)

    summ = subs.add_parser(
        "summary", help="print a capture's characteristics"
    )
    add_target_args(summ, threads=4)
    summ.set_defaults(func=cmd_summary)

    lst = subs.add_parser("list", help="list capture workloads")
    lst.set_defaults(func=lambda _args: (
        [print(name) for name in sorted(CAPTURE_WORKLOADS)], 0)[1])

    args = parser.parse_args(argv)
    return args.func(args)
