"""Symbolic protocol verifier benchmark: full-sweep wall-clock budget.

``repro protover`` runs as a CI merge gate (every push re-proves the
nine invariants inductively over all five protocols, re-checks both
refinement theorems, and re-drills the four seeded mutations with
dynamic concretization), so the whole stack must stay fast enough to
sit in the critical path.  The gate asserts the complete run fits
inside the budget committed in ``BENCH_protover.json`` (default 60
seconds, measured ~15-20s on an idle machine).

Timings only count after every sweep reproduces its expected verdict —
clean on the shipped sources with the full state count, caught with
the right finding kind (and a replayable concrete witness) on each
mutant — so a fast-but-hollow verifier can never "pass".

Run standalone (``python benchmarks/bench_protover.py``) to print the
table and refresh ``BENCH_protover.json``; the pytest entry enforces
the committed budget.
"""

from __future__ import annotations

import sys
import time

from repro.protover import MUTATIONS, PROTOVER_KEYS, verify_protocol
from repro.protover.concretize import CONCRETIZABLE, cross_validate
from repro.protover.extract import load_instrumented
from repro.protover.refine import check_refinements
from repro.protover.space import REPLAY_KEYS

DEFAULT_BUDGET_S = 60.0

#: protocol -> expected vocabulary size; a shrink hollows out the gate
EXPECTED_STATES = {"mesi": 8, "moesi": 12, "ce": 448, "ceplus": 1344,
                   "arc": 784}
#: mutation -> finding kind its drill must produce
EXPECTED_CATCH = {
    "skip-invalidations": "invariant",
    "blind-detection": "detection-completeness",
    "ignore-region-tag": "detection-soundness",
    "skip-self-invalidation": "invariant",
}


def bench_protover(budget_s: float) -> dict:
    rows = []
    total_s = 0.0

    start = time.perf_counter()
    loaded = load_instrumented()
    sweeps = {key: verify_protocol(key, loaded=loaded)
              for key in PROTOVER_KEYS}
    refinements = check_refinements(loaded)
    elapsed = time.perf_counter() - start
    for key, result in sweeps.items():
        assert result.clean, (
            f"{key}: findings on unmutated sources "
            f"{result.finding_counts} — timing a broken verifier is "
            "meaningless"
        )
        assert result.states == EXPECTED_STATES[key], (
            f"{key}: vocabulary shrank to {result.states} states"
        )
    assert refinements == [], "refinement theorems no longer hold"
    total_s += elapsed
    rows.append({
        "stage": "clean-sweep+refinement",
        "states": sum(r.states for r in sweeps.values()),
        "transitions": sum(r.steps for r in sweeps.values()),
        "findings": 0,
        "seconds": round(elapsed, 4),
    })

    for name in sorted(MUTATIONS):
        start = time.perf_counter()
        mutation = MUTATIONS[name]
        mutated = load_instrumented(name)
        result = verify_protocol(
            mutation.protocol, mutation=name, loaded=mutated
        )
        kind = EXPECTED_CATCH[name]
        assert kind in result.finding_counts, (
            f"{name}: drill missed (got {result.finding_counts})"
        )
        finding = next(f for f in result.findings
                       if f.kind in CONCRETIZABLE)
        status = cross_validate(finding, name, REPLAY_KEYS[result.protocol])
        assert status == "replayed", (
            f"{name}: concretization came back {status!r}"
        )
        elapsed = time.perf_counter() - start
        total_s += elapsed
        rows.append({
            "stage": f"mutant:{name}",
            "states": result.states,
            "transitions": result.steps,
            "findings": sum(result.finding_counts.values()),
            "seconds": round(elapsed, 4),
        })

    assert total_s <= budget_s, (
        f"the full protover stack took {total_s:.2f}s, over the "
        f"committed {budget_s:.1f}s budget"
    )
    return {
        # the committed gate value lives under "floor" (the key
        # conftest.committed_floor reads); here it is a seconds *budget*
        "floor": budget_s,
        "total_s": round(total_s, 4),
        "stages": rows,
    }


def test_bench_protover():
    """Pytest entry (CI protover job): the full verification stack —
    sweeps, refinements, mutation drills with concretization — must
    run inside the budget committed in BENCH_protover.json."""
    from conftest import committed_floor

    bench_protover(committed_floor("protover", DEFAULT_BUDGET_S))


def main() -> int:
    from conftest import committed_floor, record_bench

    payload = bench_protover(committed_floor("protover", DEFAULT_BUDGET_S))
    for row in payload["stages"]:
        print(
            f"{row['stage']:<32} {row['states']:>5} states "
            f"{row['transitions']:>6} transitions "
            f"{row['findings']:>5} findings  {row['seconds']:7.3f}s"
        )
    path = record_bench("protover", payload)
    print(
        f"total {payload['total_s']:.3f}s of {payload['floor']:.1f}s "
        f"budget — snapshot written to {path}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
