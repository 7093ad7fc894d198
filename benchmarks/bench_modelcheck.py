"""Model-checker memoization and sanitizer overhead benchmarks.

Two costs bound the verification machinery's usefulness:

* **Pass-1 state pruning.**  The explorer memoizes on
  ``(positions, protocol.snapshot())``; whenever two interleaving
  prefixes commute into the same concrete protocol state, the whole
  subtree is explored once.  On the ping-pong shape that stresses this
  hardest (two cores alternating writes/reads over two lines) the naive
  prefix-keyed exploration revisits thousands of equivalent states.
  This benchmark runs both on a length-6 alternation at depth 12 and
  asserts memoization prunes at least 5x states (measured: ~43x).
* **Sanitizer drag.**  ``--sanitize`` re-checks line-scoped invariants
  after every dispatch of a full-size run; it is only usable as an
  always-on debugging mode if it stays well under 2x.  This benchmark
  times a full racy synthetic workload per protocol, sanitized vs
  plain (best-of-N to shed scheduler noise), and asserts < 2x each.

The standalone run also writes ``BENCH_verify.json``, the kill matrix
of the verification layers: for every mutation of
:data:`repro.modelcheck.mutations.MUTATIONS` and every protocol key
that inherits the mutated class, the invariant of the first
counterexample (``null`` when the mutant survives) and the fail-fast
search time; the clean gate's states and time per key; and the
planted-race row (``synth.racy.inject_race`` over the paper suite: the
analyzer's predicted conflicts and each detector's reports, clean and
injected).  Keys the run does not produce (the one-time measurements
of the retired symbolic verifier, the known gaps) are kept as
committed.

Run standalone (``python benchmarks/bench_modelcheck.py``) for a
report and the matrix, or through pytest (the budgets only).
"""

from __future__ import annotations

import sys
import time

from repro.common.config import SystemConfig
from repro.core.api import run_program
from repro.core.simulator import Simulator
from repro.modelcheck.driver import PROTOCOL_KEYS, Driver
from repro.modelcheck.explorer import check_protocol, explore_workload
from repro.modelcheck.mutations import MUTATIONS
from repro.modelcheck.workload import MCEvent
from repro.protocols import PROTOCOL_CLASSES
from repro.synth import SUITE, build_workload
from repro.synth.racy import inject_race, injected_line
from repro.tools.analyze import analyze_program
from repro.trace.events import READ, WRITE

WORKLOAD = "racy-writers"
THREADS = 4
SCALE = 1.0
REPS = 6
PROTOCOLS = ("mesi", "ce", "ce+", "arc")

_R = lambda s: MCEvent(READ, s)  # noqa: E731
_W = lambda s: MCEvent(WRITE, s)  # noqa: E731

#: length-6 two-line ping-pong: the maximally commuting shape, where
#: prefix-keyed naive exploration degenerates while snapshots collapse
ALTERNATION = (
    (_W(0), _R(1), _W(0), _R(1), _W(0), _R(1)),
    (_W(1), _R(0), _W(1), _R(0), _W(1), _R(0)),
)
DEPTH = 12


def bench_memoization(min_prune: float = 5.0) -> dict:
    driver = Driver("mesi", cores=2, addrs=2)

    start = time.perf_counter()
    naive = explore_workload(driver, ALTERNATION, DEPTH, memoize=False)
    naive_s = time.perf_counter() - start

    start = time.perf_counter()
    memo = explore_workload(driver, ALTERNATION, DEPTH, memoize=True)
    memo_s = time.perf_counter() - start

    assert naive.violation is None and memo.violation is None
    prune = naive.states / memo.states
    assert prune >= min_prune, (
        f"memoization pruned only {prune:.1f}x states "
        f"(naive {naive.states}, memoized {memo.states}); need {min_prune}x"
    )
    return {
        "naive_states": naive.states,
        "memo_states": memo.states,
        "prune": prune,
        "naive_s": naive_s,
        "memo_s": memo_s,
    }


def _overhead_pair(protocol: str, program) -> tuple[float, float]:
    """Best-of-REPS plain and sanitized times, reps interleaved so load
    drift during the measurement hits both modes equally."""

    def one(sanitize: bool) -> float:
        sim = Simulator(
            SystemConfig(num_cores=THREADS, protocol=protocol),
            program,
            sanitize=sanitize,
        )
        start = time.perf_counter()
        sim.run()
        return time.perf_counter() - start

    plain = sanitized = float("inf")
    for _ in range(REPS):
        plain = min(plain, one(False))
        sanitized = min(sanitized, one(True))
    return plain, sanitized


def bench_sanitizer(max_overhead: float = 2.0) -> dict:
    program = build_workload(WORKLOAD, num_threads=THREADS, seed=1, scale=SCALE)
    rows = {}
    for protocol in PROTOCOLS:
        plain, sanitized = _overhead_pair(protocol, program)
        overhead = sanitized / plain
        assert overhead < max_overhead, (
            f"{protocol}: sanitizer overhead {overhead:.2f}x "
            f"(plain {plain:.3f}s, sanitized {sanitized:.3f}s) "
            f"exceeds {max_overhead:.1f}x"
        )
        rows[protocol] = {
            "plain_s": plain,
            "sanitized_s": sanitized,
            "overhead": overhead,
        }
    return rows


#: the modelcheck gate's keys, in sweep order
GATE_KEYS = ("mesi", "ce", "ceplus", "arc", "aim")
#: the planted-race row: suite workloads at this size, these detectors
RACE_THREADS = 4
RACE_SCALE = 0.05
RACE_DETECTORS = ("ce", "ce+", "arc")


def _timed_check(key: str, **kwargs):
    start = time.perf_counter()
    result = check_protocol(key, fail_fast=True, **kwargs)
    return result, round(time.perf_counter() - start, 2)


def bench_kill_matrix() -> dict:
    """Every catalogue mutant on every key whose class it edits."""
    matrix = {}
    for name, mutation in MUTATIONS.items():
        row = {}
        for key in GATE_KEYS:
            mro = PROTOCOL_CLASSES[PROTOCOL_KEYS[key][0]].__mro__
            if all(cls.__name__ != mutation.target for cls in mro):
                continue
            result, seconds = _timed_check(key, mutate=mutation.dynamic)
            row[key] = {
                "invariant": (
                    result.counterexamples[0].invariant
                    if result.counterexamples else None
                ),
                "seconds": seconds,
            }
        matrix[name] = {"target": mutation.target, "keys": row}
    return matrix


def bench_clean_gate() -> dict:
    rows = {}
    for key in GATE_KEYS:
        result, seconds = _timed_check(key)
        assert result.ok, f"{key}: the clean gate found a counterexample"
        rows[key] = {"states": result.states_explored, "seconds": seconds}
    rows["total_s"] = round(sum(row["seconds"] for row in rows.values()), 2)
    return rows


def bench_race_mutants() -> dict:
    """Conflicts before and after one planted race, per suite workload."""
    rows = {}
    for name in SUITE:
        program = build_workload(name, RACE_THREADS, 1, RACE_SCALE)
        racy = inject_race(program)
        line = injected_line(program)
        row: dict[str, dict[str, int]] = {
            layer: {} for layer in ("analysis",) + RACE_DETECTORS
        }
        for label, p in (("clean", program), ("injected", racy)):
            lines = [
                c["line"] for c in
                analyze_program(p, lint=False)["races"]["region_conflicts"]
            ]
            assert set(lines) <= {line}, (name, "analysis", lines)
            row["analysis"][label] = len(lines)
            for proto in RACE_DETECTORS:
                result = run_program(
                    SystemConfig(num_cores=RACE_THREADS, protocol=proto), p
                )
                found = {c.line_addr for c in result.stats.conflicts}
                assert found <= {line}, (name, proto, found)
                row[proto][label] = result.num_conflicts
        rows[name] = row
    return {"threads": RACE_THREADS, "scale": RACE_SCALE, "workloads": rows}


def test_bench_memoization():
    """Pytest entry: snapshot memoization prunes at least 5x states."""
    bench_memoization(min_prune=5.0)


def test_bench_sanitizer():
    """Pytest entry: --sanitize overhead stays under 2x per protocol."""
    bench_sanitizer(max_overhead=2.0)


def main() -> int:
    from conftest import record_bench

    memo = bench_memoization(min_prune=5.0)
    print(
        f"memoization (alternation len=6, depth={DEPTH}): "
        f"naive {memo['naive_states']} states {memo['naive_s']*1e3:.0f}ms vs "
        f"memoized {memo['memo_states']} states {memo['memo_s']*1e3:.0f}ms — "
        f"{memo['prune']:.1f}x pruned"
    )
    for protocol, row in bench_sanitizer(max_overhead=2.0).items():
        print(
            f"sanitize {protocol}: plain {row['plain_s']*1e3:.0f}ms, "
            f"sanitized {row['sanitized_s']*1e3:.0f}ms — "
            f"{row['overhead']:.2f}x"
        )
    matrix = bench_kill_matrix()
    for name, entry in matrix.items():
        cells = ", ".join(
            f"{key} {cell['invariant'] or 'MISSED'} {cell['seconds']}s"
            for key, cell in entry["keys"].items()
        )
        print(f"mutant {name}: {cells}")
    gate = bench_clean_gate()
    print(f"clean gate: {gate['total_s']}s")
    races = bench_race_mutants()
    for name, row in races["workloads"].items():
        print(f"planted race {name}: " + ", ".join(
            f"{layer} {counts['clean']}->{counts['injected']}"
            for layer, counts in row.items()
        ))
    path = record_bench("verify", {
        "mutants": matrix, "clean_gate": gate, "race_mutants": races,
    })
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
