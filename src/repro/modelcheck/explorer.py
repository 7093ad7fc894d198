"""Exhaustive state-space exploration of the real protocol classes.

Two passes per bounded workload:

**Pass 1 — state invariants (memoized BFS).**  Nodes are per-core
position vectors; an edge executes one core's next scripted event.  The
machine state reached by an edge is reproduced by replaying its step
prefix on a fresh protocol instance, the full invariant suite runs on
every edge, and the node is expanded only if its ``(positions,
snapshot fingerprint)`` pair is new — the memoization that collapses
interleavings which converged to the same machine state.  Fingerprints
come from the protocols' own ``snapshot()`` hooks, which canonicalize
away dead (region-expired) metadata so semantically identical states
merge.

**Pass 2 — detection soundness/completeness (full interleavings).**
Every maximal interleaving is replayed end to end with a schedule
recorder, and the detector's reported conflict set is checked against
the per-schedule ``(must_detect, may_detect)`` oracle bounds
(:func:`repro.core.oracle.expected_conflicts`): exact CE-semantics
equality for CE/CE+, the ``ce ⊆ detected ⊆ overlap`` sandwich for lazy
ARC, the empty set for MESI.  Memoization is deliberately *not* used
here — the oracle is a function of the whole schedule, not of the
reached machine state.

Counterexamples are shrunk by greedy event deletion and rendered as
replayable trace programs (:mod:`repro.modelcheck.shrink`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..common.config import ProtocolKind
from ..core.oracle import detected_keys, expected_conflicts
from .driver import Driver
from .invariants import check_state
from .shrink import Steps, minimize, render_trace
from .workload import (
    Workload,
    curated_scenarios,
    default_script_len,
    enumerate_workloads,
    workload_label,
)

#: pseudo-invariant names used for the oracle cross-check
SOUNDNESS = "detection-soundness"
COMPLETENESS = "detection-completeness"


@dataclass(frozen=True)
class Counterexample:
    """A minimized, replayable invariant violation."""

    invariant: str
    message: str
    workload: str
    steps: tuple
    minimized: tuple
    trace: str

    def render(self) -> str:
        return (
            f"{self.invariant} in [{self.workload}]\n"
            f"  {self.message}\n"
            f"  minimized to {len(self.minimized)} step(s) "
            f"(from {len(self.steps)}):\n"
            + "\n".join(f"    {line}" for line in self.trace.splitlines())
        )

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "message": self.message,
            "workload": self.workload,
            "steps": len(self.steps),
            "minimized_steps": len(self.minimized),
            "trace": self.trace,
        }


@dataclass
class ModelCheckResult:
    """Aggregate outcome of one protocol's bounded exploration."""

    protocol: str
    cores: int
    addrs: int
    depth: int
    script_len: int
    workloads: int = 0
    states_explored: int = 0
    state_visits: int = 0
    interleavings: int = 0
    truncated_workloads: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "cores": self.cores,
            "addrs": self.addrs,
            "depth": self.depth,
            "script_len": self.script_len,
            "workloads": self.workloads,
            "states_explored": self.states_explored,
            "state_visits": self.state_visits,
            "interleavings": self.interleavings,
            "truncated_workloads": self.truncated_workloads,
            "ok": self.ok,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
        }


# --------------------------------------------------------------------------
# pass 1: memoized state exploration
# --------------------------------------------------------------------------


@dataclass
class ExploreStats:
    """Raw numbers from one workload's pass-1 exploration."""

    states: int = 0
    visits: int = 0
    #: first violation found: (invariant, message, steps)
    violation: tuple[str, str, Steps] | None = None


def _steps_for(workload: Workload, path: tuple[int, ...]) -> Steps:
    indices = [0] * len(workload)
    steps: Steps = []
    for core in path:
        steps.append((core, workload[core][indices[core]]))
        indices[core] += 1
    return steps


def explore_workload(
    driver: Driver, workload: Workload, depth: int, *, memoize: bool = True
) -> ExploreStats:
    """Pass 1 on one workload: BFS with fingerprint memoization.

    With ``memoize=False`` every distinct step prefix counts as its own
    state (the naive exploration the benchmark compares against); the
    invariant checks and visit counts are identical either way.
    """
    n = len(workload)
    lengths = [len(s) for s in workload]
    stats = ExploreStats()
    start = (0,) * n
    queue: deque[tuple[tuple[int, ...], tuple[int, ...]]] = deque([(start, ())])
    seen: set = {(start, ())} if not memoize else set()
    if memoize:
        seen.add((start, driver.new_run().protocol.snapshot()))
    stats.states = len(seen)
    while queue:
        positions, path = queue.popleft()
        if len(path) >= depth:
            continue
        for core in range(n):
            if positions[core] >= lengths[core]:
                continue
            new_path = path + (core,)
            run = driver.replay(_steps_for(workload, new_path))
            stats.visits += 1
            violations = check_state(run)
            if violations:
                first = violations[0]
                stats.violation = (
                    first.invariant,
                    first.render(),
                    _steps_for(workload, new_path),
                )
                return stats
            new_positions = tuple(
                p + 1 if c == core else p for c, p in enumerate(positions)
            )
            key = (
                (new_positions, run.protocol.snapshot())
                if memoize
                else (new_positions, new_path)
            )
            if key not in seen:
                seen.add(key)
                queue.append((new_positions, new_path))
    stats.states = len(seen)
    return stats


# --------------------------------------------------------------------------
# pass 2: per-interleaving oracle cross-check
# --------------------------------------------------------------------------


def _maximal_paths(lengths: list[int], depth: int, cap: int):
    """Yield every maximal (or depth-capped) interleaving as a core-id
    tuple; returns True via StopIteration value if the cap truncated."""
    n = len(lengths)
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((0,) * n, ())]
    yielded = 0
    while stack:
        positions, path = stack.pop()
        extended = False
        if len(path) < depth:
            for core in range(n - 1, -1, -1):
                if positions[core] < lengths[core]:
                    extended = True
                    new_positions = tuple(
                        p + 1 if c == core else p for c, p in enumerate(positions)
                    )
                    stack.append((new_positions, path + (core,)))
        if not extended:
            if yielded >= cap:
                return True
            yielded += 1
            yield path
    return False


def _oracle_violation(
    driver: Driver, workload: Workload, path: tuple[int, ...],
    kind: ProtocolKind,
) -> tuple[str, str, Steps] | None:
    steps = _steps_for(workload, path)
    run = driver.replay(steps, refine=False)
    run.finalize()
    detected = detected_keys(run.protocol.stats.conflicts)
    must, may = expected_conflicts(run.recorder, kind)
    extra = sorted(detected - may)
    if extra:
        return (
            SOUNDNESS,
            f"detector reported {len(extra)} conflict(s) outside the "
            f"oracle's may-detect bound: {extra}",
            steps,
        )
    missing = sorted(must - detected)
    if missing:
        return (
            COMPLETENESS,
            f"detector missed {len(missing)} must-detect oracle "
            f"conflict(s): {missing}",
            steps,
        )
    return None


# --------------------------------------------------------------------------
# minimization predicates
# --------------------------------------------------------------------------


def _reproduces_state(driver: Driver, invariant: str):
    def predicate(steps: Steps) -> bool:
        run = driver.new_run()
        for core, event in steps:
            run.step(core, event)
            if any(v.invariant == invariant for v in check_state(run)):
                return True
        return False

    return predicate


def _reproduces_oracle(driver: Driver, invariant: str, kind: ProtocolKind):
    def predicate(steps: Steps) -> bool:
        run = driver.replay(steps, refine=False)
        run.finalize()
        detected = detected_keys(run.protocol.stats.conflicts)
        must, may = expected_conflicts(run.recorder, kind)
        if invariant == SOUNDNESS:
            return bool(detected - may)
        return bool(must - detected)

    return predicate


def _make_counterexample(
    driver: Driver,
    label: str,
    invariant: str,
    message: str,
    steps: Steps,
    kind: ProtocolKind,
) -> Counterexample:
    if invariant in (SOUNDNESS, COMPLETENESS):
        predicate = _reproduces_oracle(driver, invariant, kind)
    else:
        predicate = _reproduces_state(driver, invariant)
    minimized = minimize(steps, predicate)
    return Counterexample(
        invariant=invariant,
        message=message,
        workload=label,
        steps=tuple(steps),
        minimized=tuple(minimized),
        trace=render_trace(minimized),
    )


# --------------------------------------------------------------------------
# the merge-gate entry point
# --------------------------------------------------------------------------


def check_protocol(
    protocol: str,
    cores: int = 2,
    addrs: int = 2,
    depth: int = 8,
    script_len: int | None = None,
    *,
    include_enumerated: bool = True,
    include_scenarios: bool = True,
    fail_fast: bool = False,
    memoize: bool = True,
    mutate=None,
    max_counterexamples: int = 10,
    max_paths_per_workload: int = 5000,
) -> ModelCheckResult:
    """Exhaust the bounded state space of one protocol.

    ``mutate`` (a callable applied to every fresh protocol instance) is
    the test hook for deliberately broken protocols; ``memoize=False``
    switches pass 1 to naive exploration for the benchmark comparison.
    """
    if script_len is None:
        script_len = default_script_len(cores)
    driver = Driver(protocol, cores, addrs, mutate=mutate)
    kind = driver.cfg.protocol

    # the curated scenarios go first: each targets one protocol
    # mechanism, so a broken protocol fails there in a handful of
    # workloads instead of after hundreds of enumerated ones
    labeled: list[tuple[str, Workload]] = []
    if include_scenarios:
        labeled.extend(curated_scenarios(cores, addrs))
    if include_enumerated:
        labeled.extend(
            (workload_label(w), w)
            for w in enumerate_workloads(cores, addrs, script_len)
        )

    result = ModelCheckResult(
        protocol=protocol,
        cores=cores,
        addrs=addrs,
        depth=depth,
        script_len=script_len,
    )
    for label, workload in labeled:
        result.workloads += 1
        stats = explore_workload(driver, workload, depth, memoize=memoize)
        result.states_explored += stats.states
        result.state_visits += stats.visits
        failure = stats.violation
        if failure is None:
            # pass 2 only on workloads whose states are invariant-clean
            paths = _maximal_paths(
                [len(s) for s in workload], depth, max_paths_per_workload
            )
            while True:
                try:
                    path = next(paths)
                except StopIteration as stop:
                    if stop.value:
                        result.truncated_workloads += 1
                    break
                result.interleavings += 1
                failure = _oracle_violation(driver, workload, path, kind)
                if failure is not None:
                    break
        if failure is not None:
            invariant, message, steps = failure
            result.counterexamples.append(
                _make_counterexample(
                    driver, label, invariant, message, steps, kind
                )
            )
            if fail_fast or len(result.counterexamples) >= max_counterexamples:
                return result
    return result
