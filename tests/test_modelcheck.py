"""Model checker tests: exhaustive gate, mutations, shrinking, sanitizer.

The headline assertions mirror the merge gate: every protocol's bounded
state space is exhausted with zero violations, and the seeded protocol
mutations of :data:`repro.protover.MUTATIONS` (applied per instance)
produce minimized, replayable counterexample traces naming the
violated invariant.
"""

import functools

import pytest

from repro.common.errors import SimulationError
from repro.core.machine import Machine
from repro.core.simulator import Simulator
from repro.common.config import SystemConfig
from repro.modelcheck import (
    COMPLETENESS,
    SOUNDNESS,
    Driver,
    check_protocol,
    check_state,
    minimize,
    modelcheck_config,
    parse_trace,
    render_trace,
    replay_trace,
)
from repro.modelcheck.workload import MCEvent, curated_scenarios, enumerate_workloads
from repro.protocols import make_protocol
from repro.protover import MUTATIONS
from repro.trace import Program, TraceBuilder
from repro.trace.events import ACQUIRE, READ, RELEASE, WRITE
from repro.verify.oracle import detected_keys, expected_conflicts

ALL_KEYS = ("mesi", "ce", "ceplus", "aim", "arc")


@functools.lru_cache(maxsize=None)
def first_counterexample(name):
    """The model checker's first counterexample against one mutation."""
    mutation = MUTATIONS[name]
    result = check_protocol(
        mutation.replay_key, fail_fast=True, mutate=mutation.dynamic
    )
    assert not result.ok
    return result.counterexamples[0]


# --------------------------------------------------------------------------
# the merge gate: zero violations on every protocol
# --------------------------------------------------------------------------


class TestExhaustiveGate:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_bounded_space_is_clean(self, key):
        result = check_protocol(key, cores=2, addrs=2)
        assert result.ok, "\n".join(
            ce.render() for ce in result.counterexamples
        )
        assert result.workloads > 600
        assert result.states_explored > 1000
        assert result.interleavings > 4000
        assert result.truncated_workloads == 0

    def test_memoization_only_changes_state_counts(self):
        naive = check_protocol(
            "mesi", include_enumerated=False, memoize=False
        )
        memo = check_protocol("mesi", include_enumerated=False, memoize=True)
        assert naive.ok and memo.ok
        # pass 2 (oracle cross-check) never uses the memo table
        assert naive.interleavings == memo.interleavings
        # converged machine states merge: fewer states, fewer expansions
        assert memo.states_explored < naive.states_explored
        assert memo.state_visits < naive.state_visits


class TestMutations:
    """A broken protocol must yield a minimized, replayable counterexample."""

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_counterexample_replays(self, name):
        mutation = MUTATIONS[name]
        ce = first_counterexample(name)
        assert 0 < len(ce.minimized) <= len(ce.steps)
        # the rendered trace replays to the same violation
        run = replay_trace(
            mutation.replay_key, 2, 2, ce.trace, mutate=mutation.dynamic
        )
        if ce.invariant in (SOUNDNESS, COMPLETENESS):
            run.finalize()
            must, may = expected_conflicts(run.recorder, run.cfg.protocol)
            detected = detected_keys(run.protocol.stats.conflicts)
            assert (
                must - detected if ce.invariant == COMPLETENESS
                else detected - may
            )
        else:
            assert any(v.invariant == ce.invariant for v in check_state(run))

    def test_mesi_skipped_invalidation_breaks_swmr(self):
        ce = first_counterexample("skip-invalidations")
        assert ce.invariant in ("swmr", "directory-precision", "ghost-value")

    def test_ce_blind_detection_is_incomplete(self):
        assert first_counterexample("blind-detection").invariant == COMPLETENESS

    def test_ce_dead_region_bits_are_unsound(self):
        assert first_counterexample("ignore-region-tag").invariant == SOUNDNESS

    def test_arc_skipped_self_invalidation_is_caught(self):
        ce = first_counterexample("skip-self-invalidation")
        assert ce.invariant == "arc-boundary"

    def test_minimized_traces_are_one_minimal(self):
        """No single further deletion of a minimized trace reproduces."""
        ce = first_counterexample("skip-invalidations")
        steps = parse_trace(ce.trace)

        def reproduces(candidate):
            driver = Driver(
                "mesi", 2, 2, mutate=MUTATIONS["skip-invalidations"].dynamic
            )
            run = driver.new_run()
            for core, event in candidate:
                run.step(core, event)
                if any(v.invariant == ce.invariant for v in check_state(run)):
                    return True
            return False

        assert reproduces(steps)
        for i in range(len(steps)):
            candidate = steps[:i] + steps[i + 1:]
            assert not (candidate and reproduces(candidate)), (
                f"dropping step {i} still reproduces — not 1-minimal"
            )


# --------------------------------------------------------------------------
# workloads, shrinking, trace round-trips
# --------------------------------------------------------------------------


class TestWorkloads:
    def test_enumeration_is_symmetry_reduced(self):
        workloads = list(enumerate_workloads(2, 2, 2))
        wset = set(workloads)
        assert len(workloads) == len(wset)
        # multisets: the mirrored assignment of scripts to cores is absent
        for w in workloads:
            if w[0] != w[1]:
                assert tuple(reversed(w)) not in wset

    def test_scenarios_cover_every_boundary_kind(self):
        kinds = set()
        for _label, workload in curated_scenarios(2, 2):
            for script in workload:
                kinds.update(e.kind for e in script)
        assert {READ, WRITE, RELEASE, ACQUIRE} <= kinds


class TestShrinking:
    def test_minimize_reaches_fixpoint(self):
        steps = [(0, MCEvent(READ, 0)), (1, MCEvent(WRITE, 0)),
                 (0, MCEvent(READ, 1)), (1, MCEvent(RELEASE))]
        # reproduce iff the write survives
        minimized = minimize(
            steps, lambda s: any(e.kind == WRITE for _c, e in s)
        )
        assert minimized == [(1, MCEvent(WRITE, 0))]

    def test_trace_round_trip(self):
        steps = [
            (0, MCEvent(WRITE, 1, 8)),
            (1, MCEvent(ACQUIRE)),
            (1, MCEvent(READ, 0)),
        ]
        assert parse_trace(render_trace(steps)) == steps

    def test_parse_trace_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_trace("step 0: core 0 FROB 0x40")


# --------------------------------------------------------------------------
# the sanitizer
# --------------------------------------------------------------------------


class TestSanitizer:
    def racy_program(self):
        t0 = TraceBuilder().write(0x1000, 8).acquire(0).release(0).build()
        t1 = (
            TraceBuilder().read(0x1000, 8, gap=5).write(0x1040, 8)
            .acquire(1).release(1).build()
        )
        return Program([t0, t1], name="racy")

    @pytest.mark.parametrize("proto", ("mesi", "ce", "ce+", "arc"))
    def test_armed_healthy_run_is_silent(self, proto):
        cfg = SystemConfig(num_cores=2, protocol=proto)
        result = Simulator(cfg, self.racy_program(), sanitize=True).run()
        assert result.cycles > 0

    def test_armed_broken_protocol_raises_at_dispatch(self):
        machine = Machine(modelcheck_config("mesi", 2), sanitize=True)
        protocol = make_protocol(machine)
        MUTATIONS["skip-invalidations"].dynamic(protocol)
        protocol.access(0, 0, 4, False, 0)
        protocol.access(1, 0, 4, False, 10)
        with pytest.raises(
            SimulationError, match=r"^sanitizer\[mesi\]: (swmr|directory-precision): "
        ):
            protocol.access(1, 0, 4, True, 20)

    def test_armed_broken_arc_raises_at_boundary(self):
        machine = Machine(modelcheck_config("arc", 2), sanitize=True)
        protocol = make_protocol(machine)
        MUTATIONS["skip-self-invalidation"].dynamic(protocol)
        protocol.access(0, 0, 4, True, 0)
        protocol.access(1, 0, 4, False, 10)  # line goes SHARED
        with pytest.raises(
            SimulationError, match=r"arc-boundary: .*self-invalidation"
        ):
            protocol.region_boundary(1, 20, ACQUIRE)

    def test_env_var_arms_the_machine(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Machine(modelcheck_config("mesi", 2)).sanitize
        monkeypatch.delenv("REPRO_SANITIZE")
        assert not Machine(modelcheck_config("mesi", 2)).sanitize

    def test_unarmed_protocol_is_unwrapped(self):
        machine = Machine(modelcheck_config("mesi", 2))
        protocol = make_protocol(machine)
        assert "access" not in vars(protocol)


def _stale_sharer_bit(protocol):
    protocol.l1[1].invalidate(0)  # the directory still lists core 1


def _unlogged_spill(protocol):
    protocol.spill_log[0].discard(0)


def _skipped_spill_clear(protocol):
    protocol._clear_spilled = lambda core, cycle: 0


def _foreign_private_copy(protocol):
    protocol.owner_table[0] = 1  # core 0 caches a line private to core 1


def _unqueued_dirty_shared(protocol):
    protocol.dirty_shared[0].discard(0)  # the release will not flush it


_R0, _R1, _W0, _W1, _W2 = (
    MCEvent(READ, 0), MCEvent(READ, 1),
    MCEvent(WRITE, 0), MCEvent(WRITE, 1), MCEvent(WRITE, 2),
)
_SPILL = [(0, _W0), (0, _W1), (0, _W2)]  # 2-line L1: line 0 spills

#: (protocol, healthy setup steps, plant, step that exposes it, invariant)
PLANTED = {
    "stale-sharer-bit": (
        "mesi", [(0, _R0), (1, _R0)], _stale_sharer_bit, (0, _R0),
        "directory-precision",
    ),
    "unlogged-live-spill": (
        "ce", _SPILL, _unlogged_spill, (1, _R0), "ce-liveness",
    ),
    "spill-log-survives-boundary": (
        "ce", _SPILL, _skipped_spill_clear, (0, MCEvent(RELEASE)),
        "ce-liveness",
    ),
    "private-line-cached-by-another-core": (
        "arc", [(0, _W0)], _foreign_private_copy, (0, _R0),
        "arc-classification",
    ),
    "dirty-shared-survives-release": (
        "arc", [(0, _W0), (1, _R0), (0, _W0)], _unqueued_dirty_shared,
        (0, MCEvent(RELEASE)), "arc-boundary",
    ),
}


class TestSanitizerParity:
    """The explorer's whole-state check and the armed sanitizer run the
    same functions, so a planted corruption trips both under one name."""

    def _run(self, monkeypatch, case, *, armed):
        key, setup, plant, exposing, _invariant = PLANTED[case]
        if armed:
            monkeypatch.setenv("REPRO_SANITIZE", "1")
        else:
            monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        run = Driver(key, cores=2, addrs=3).new_run()
        for core, event in setup:
            run.step(core, event)
        assert check_state(run) == []
        plant(run.protocol)
        run.step(*exposing)
        return run

    @pytest.mark.parametrize("case", sorted(PLANTED))
    def test_check_state_and_sanitizer_agree(self, monkeypatch, case):
        invariant = PLANTED[case][-1]
        violations = check_state(self._run(monkeypatch, case, armed=False))
        assert {v.invariant for v in violations} == {invariant}
        with pytest.raises(SimulationError) as excinfo:
            self._run(monkeypatch, case, armed=True)
        assert str(excinfo.value).startswith(
            f"sanitizer[{PLANTED[case][0]}]: {invariant}: "
        )


class TestSanitizeFlagStdout:
    def test_run_sanitize_stdout_is_byte_identical(self, capsys):
        import os

        from repro.harness.run import main as run_main

        argv = ["table3_conflicts", "--preset", "quick", "--no-cache"]
        try:
            assert run_main(argv) == 0
            plain = capsys.readouterr().out
            assert run_main(argv + ["--sanitize"]) == 0
            sanitized = capsys.readouterr().out
        finally:
            os.environ.pop("REPRO_SANITIZE", None)
        assert sanitized == plain
