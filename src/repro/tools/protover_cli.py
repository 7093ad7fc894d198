"""``repro protover`` — the symbolic protocol verifier CLI.

Runs the full verification stack over the protocol sources:

1. the inductive sweep per protocol (vocabulary × alphabet, nine
   invariants re-proved on every post-state, detection bounds,
   completeness / non-overlap / determinism of the extracted guarded
   relation);
2. the refinement theorems (CE+ ⊑ CE ⊑ MESI) on unmutated sources;
3. dynamic cross-validation: each finding is concretized into a
   replayable modelcheck trace or classified as abstraction
   imprecision — a witness whose replay does *not* reproduce its
   defect is **unsoundness** and dominates the exit code.

Exit codes follow :mod:`repro.cli`: 0 = clean, 3 = findings at or
above ``--fail-on`` (or docs drift under ``--check-docs``),
4 = the verifier contradicted itself (unsound concretization).

Examples::

    repro protover                      # full sweep, all five protocols
    repro protover ce ceplus --format json
    repro protover --mutate blind-detection   # seeded-defect drill
    repro protover --write-docs         # regenerate docs/PROTOCOLS.md
    repro protover --check-docs         # CI drift gate
"""

from __future__ import annotations

import argparse

from ..cli import EXIT_BROKEN, EXIT_FINDINGS, add_format, emit
from ..common.durable import atomic_replace_text
from ..protover.concretize import CONCRETIZABLE, cross_validate
from ..protover.extract import load_instrumented
from ..protover.induct import SweepResult, verify_protocol
from ..protover.mutations import MUTATIONS
from ..protover.refine import check_refinements
from ..protover.space import PROTOVER_KEYS, REPLAY_KEYS
from ..protover.tables import docs_current, docs_path, render_tables, splice

#: finding kinds, in the order text reports list them
KINDS = (
    "exception", "invariant", "detection-completeness",
    "detection-soundness", "overlap", "nondeterminism", "refinement",
)


def _render_guard(finding, loaded, limit: int = 4) -> list[str]:
    lines = []
    decisions = list(finding.guard)
    shown = decisions if len(decisions) <= limit else decisions[-limit:]
    if len(decisions) > limit:
        lines.append(f"      guard: ... {len(decisions) - limit} earlier "
                     "decision(s)")
    for site_id, outcome in shown:
        site = loaded.sites[site_id]
        lines.append(f"      guard: {site.render()} -> {outcome}")
    return lines


def _render_text(results, refinements, loaded) -> str:
    lines = []
    for result in results:
        status = "clean" if result.clean else (
            ", ".join(f"{kind}:{count}"
                      for kind, count in sorted(result.finding_counts.items()))
        )
        mutation = f" [mutant {result.mutation}]" if result.mutation else ""
        lines.append(
            f"{result.protocol}{mutation}: {result.states} states, "
            f"{result.steps} transitions, {result.sites} guard sites, "
            f"{result.elapsed:.2f}s — {status}"
        )
        for finding in result.findings:
            invariant = f" [{finding.invariant}]" if finding.invariant else ""
            lines.append(
                f"  {finding.kind}{invariant}: {finding.state_label} "
                f"-- {finding.event_label}"
            )
            lines.append(f"      {finding.message}")
            lines.extend(_render_guard(finding, loaded))
            if finding.concrete is not None:
                lines.append(f"      concretization: {finding.concrete}")
            if finding.trace:
                lines.extend(
                    f"        {line}" for line in finding.trace.splitlines()
                )
    for finding in refinements:
        lines.append(
            f"  refinement: {finding.protocol} | {finding.state_label} "
            f"-- {finding.event_label}"
        )
        lines.append(f"      {finding.message}")
    return "\n".join(lines)


def _as_json(results: list[SweepResult], refinements) -> dict:
    return {
        "protocols": [
            {
                "protocol": result.protocol,
                "mutation": result.mutation,
                "states": result.states,
                "transitions": result.steps,
                "guard_sites": result.sites,
                "elapsed_s": round(result.elapsed, 3),
                "finding_counts": result.finding_counts,
                "findings": [f.to_dict() for f in result.findings],
            }
            for result in results
        ],
        "refinements": [f.to_dict() for f in refinements],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro protover",
        description="symbolic protocol verifier: extract guarded "
                    "transition tables and prove the coherence "
                    "invariants inductively",
    )
    parser.add_argument(
        "protocols", nargs="*",
        help=f"protocol keys to verify (default: all of "
             f"{' '.join(PROTOVER_KEYS)})",
    )
    parser.add_argument(
        "--mutate", metavar="NAME", default=None,
        help="verify with a seeded source mutation applied "
             "(see --list-mutations)",
    )
    parser.add_argument(
        "--list-mutations", action="store_true",
        help="list the seeded mutation drills and exit",
    )
    add_format(parser)
    parser.add_argument(
        "--fail-on", choices=("any",) + KINDS + ("never",), default="any",
        help="which finding kinds set exit code 3 (default: any)",
    )
    parser.add_argument(
        "--no-refine", action="store_true",
        help="skip the CE+<=CE<=MESI refinement theorems",
    )
    parser.add_argument(
        "--no-concretize", action="store_true",
        help="skip dynamic cross-validation of findings",
    )
    parser.add_argument(
        "--write-docs", action="store_true",
        help="regenerate the transition tables in docs/PROTOCOLS.md",
    )
    parser.add_argument(
        "--check-docs", action="store_true",
        help="fail (exit 3) if docs/PROTOCOLS.md is stale",
    )
    args = parser.parse_args(argv)

    if args.list_mutations:
        for name, mutation in MUTATIONS.items():
            print(f"{name}: {mutation.summary} "
                  f"(protocol {mutation.protocol})")
        return 0

    if args.mutate is not None and args.mutate not in MUTATIONS:
        parser.error(
            f"unknown mutation {args.mutate!r}; one of "
            f"{', '.join(MUTATIONS)}"
        )
    keys = args.protocols or (
        [MUTATIONS[args.mutate].protocol] if args.mutate
        else list(PROTOVER_KEYS)
    )
    for key in keys:
        if key not in PROTOVER_KEYS and key != "ce+":
            parser.error(f"unknown protocol {key!r}; one of "
                         f"{', '.join(PROTOVER_KEYS)}")

    loaded = load_instrumented(args.mutate)
    results = [
        verify_protocol(key, mutation=args.mutate, loaded=loaded)
        for key in keys
    ]

    refinements = []
    if not args.no_refine and args.mutate is None:
        refinements = check_refinements(loaded)

    unsound = False
    if not args.no_concretize:
        for result in results:
            concretized: set[str] = set()
            for finding in result.findings:
                if finding.kind not in CONCRETIZABLE:
                    continue
                witness_class = (finding.kind, finding.invariant)
                if witness_class in concretized:
                    continue
                concretized.add(witness_class)
                status = cross_validate(
                    finding, args.mutate, REPLAY_KEYS[result.protocol]
                )
                unsound = unsound or status == "unsound"

    docs_stale = False
    if args.write_docs or args.check_docs:
        if args.mutate is not None:
            parser.error("--write-docs/--check-docs need unmutated tables")
        generated = render_tables(
            [r for r in results if r.protocol in PROTOVER_KEYS]
        )
        path = docs_path()
        document = path.read_text() if path.exists() else ""
        if args.check_docs:
            docs_stale = not docs_current(document, generated)
            if docs_stale:
                print(f"{path} is stale — run repro protover --write-docs")
        if args.write_docs:
            atomic_replace_text(path, splice(document, generated),
                                site="protover-docs")
            print(f"wrote {path}")

    payload = _as_json(results, refinements)
    payload["docs_stale"] = docs_stale
    payload["unsound"] = unsound
    emit(args.format, payload, _render_text(results, refinements, loaded))

    if unsound:
        return EXIT_BROKEN
    if args.fail_on == "never":
        return EXIT_FINDINGS if docs_stale else 0
    failing = [
        kind
        for result in results
        for kind in result.finding_counts
        if args.fail_on in ("any", kind)
    ]
    if refinements and args.fail_on in ("any", "refinement"):
        failing.append("refinement")
    return EXIT_FINDINGS if (failing or docs_stale) else 0
