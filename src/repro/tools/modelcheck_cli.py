"""Protocol model checker CLI — the coherence merge gate.

Exhaustively explores every interleaving of small bounded workloads on
the real protocol classes, checking the declarative invariant suite at
every reachable state and cross-checking each complete interleaving's
reported conflicts against the happens-before oracle.  Exit 3 on any
violation, with minimized, replayable counterexample traces.

Usage::

    repro modelcheck --protocol ce
    repro modelcheck --protocol arc --cores 2 --addrs 3
    repro modelcheck --all --fail-fast
    repro modelcheck --protocol mesi --format json
"""

from __future__ import annotations

import argparse
import sys
import time

from ..cli import EXIT_FINDINGS, add_format, emit
from ..modelcheck import INVARIANTS, ModelCheckResult, check_protocol

#: gate sweep order (every protocol key, tiny-AIM variant included)
ALL_PROTOCOLS = ("mesi", "ce", "ceplus", "arc", "aim")


def render_text(result: ModelCheckResult) -> str:
    lines = [
        f"{result.protocol}: {result.cores} cores x {result.addrs} addrs, "
        f"script len {result.script_len}, depth {result.depth}",
        f"  workloads      {result.workloads}",
        f"  states         {result.states_explored}"
        f" (edges executed: {result.state_visits})",
        f"  interleavings  {result.interleavings}",
    ]
    if result.truncated_workloads:
        lines.append(
            f"  TRUNCATED: {result.truncated_workloads} workload(s) hit the "
            "interleaving cap — coverage is partial"
        )
    if result.ok:
        lines.append("  all invariants hold; detection matches the oracle")
    else:
        lines.append(f"  {len(result.counterexamples)} COUNTEREXAMPLE(S):")
        for ce in result.counterexamples:
            lines.extend("  " + line for line in ce.render().splitlines())
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro modelcheck",
        description="Exhaustive bounded model check of the protocol classes.",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--protocol", choices=ALL_PROTOCOLS,
        help="protocol key ('aim' is CE+ with a 2-entry AIM under pressure)",
    )
    target.add_argument(
        "--all", action="store_true", help="check every protocol in sequence"
    )
    target.add_argument(
        "--list-invariants", action="store_true",
        help="print the invariant catalogue and exit",
    )
    parser.add_argument("--cores", type=int, choices=(2, 3), default=2)
    parser.add_argument("--addrs", type=int, choices=(2, 3), default=2)
    parser.add_argument(
        "--depth", type=int, default=8,
        help="interleaving depth bound (default: 8)",
    )
    parser.add_argument(
        "--script-len", type=int, default=None,
        help="events per enumerated per-core script (default: 2 for 2 "
        "cores, 1 for 3)",
    )
    parser.add_argument(
        "--no-scenarios", action="store_true",
        help="skip the curated deep scenarios",
    )
    parser.add_argument(
        "--no-enumerate", action="store_true",
        help="skip the exhaustive enumeration (curated scenarios only)",
    )
    parser.add_argument(
        "--naive", action="store_true",
        help="disable fingerprint memoization (benchmark baseline)",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="stop at the first counterexample",
    )
    add_format(parser)
    args = parser.parse_args(argv)

    if args.list_invariants:
        emit(
            args.format,
            [{"name": inv.name, "summary": inv.summary} for inv in INVARIANTS],
            "\n".join(f"{inv.name:22s} {inv.summary}" for inv in INVARIANTS),
        )
        return 0

    protocols = ALL_PROTOCOLS if args.all else (args.protocol,)
    results = []
    failed = False
    for protocol in protocols:
        start = time.perf_counter()
        result = check_protocol(
            protocol,
            cores=args.cores,
            addrs=args.addrs,
            depth=args.depth,
            script_len=args.script_len,
            include_enumerated=not args.no_enumerate,
            include_scenarios=not args.no_scenarios,
            fail_fast=args.fail_fast,
            memoize=not args.naive,
        )
        elapsed = time.perf_counter() - start
        print(f"[{protocol}: {elapsed:.1f}s]", file=sys.stderr)
        results.append(result)
        if not result.ok:
            failed = True
            if args.fail_fast:
                break

    emit(
        args.format,
        [r.to_dict() for r in results],
        "\n".join(render_text(result) for result in results),
    )
    return EXIT_FINDINGS if failed else 0
