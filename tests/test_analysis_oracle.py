"""Cross-validation: static analyzer vs run-time oracle vs detectors.

The analyzer predicts, schedule-free, every region pair that can
conflict in *some* legal schedule.  Any one simulated run realizes one
schedule, so the containment invariants are:

    overlap_conflicts(run)   ⊆  region_conflicts(program)   (every run)
    detector reports (run)   ⊆  region_conflicts(program)   (every run)
    region_conflicts == ∅    ⇒  overlap == ∅ and no reports  (any run)

checked over the whole synth suite and over hypothesis-generated random
programs, for all three detecting protocols.  Keys are the shared
``(line, coreA, regionA, coreB, regionB)`` ConflictKey form.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import conflict_lines, region_conflicts
from repro.common.config import SystemConfig
from repro.core.oracle import ScheduleRecorder, detected_keys, overlap_conflicts
from repro.core.simulator import Simulator
from repro.synth import RACY_SUITE, SUITE, build_workload
from repro.synth.base import registered_workloads
from repro.trace import Program, TraceBuilder

DETECTORS = ("ce", "ce+", "arc")
#: every registered generator, including the ones outside the two suites
ALL_WORKLOADS = tuple(sorted(registered_workloads()))


def run_recorded(proto, program, num_cores=4):
    recorder = ScheduleRecorder()
    sim = Simulator(
        SystemConfig(num_cores=num_cores, protocol=proto), program,
        recorder=recorder,
    )
    result = sim.run()
    return result, recorder


@pytest.fixture(scope="module")
def workloads():
    return {
        name: build_workload(name, num_threads=4, seed=1, scale=0.05)
        for name in ALL_WORKLOADS
    }


@pytest.fixture(scope="module")
def predictions(workloads):
    return {name: region_conflicts(program) for name, program in workloads.items()}


class TestSuiteContainment:
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    @pytest.mark.parametrize("proto", DETECTORS)
    def test_oracle_and_detector_within_predictions(
        self, name, proto, workloads, predictions
    ):
        program = workloads[name]
        predicted = set(predictions[name])
        result, recorder = run_recorded(proto, program)
        overlap = set(overlap_conflicts(recorder))
        detected = detected_keys(result.stats.conflicts)
        assert overlap <= predicted, (
            f"{name}/{proto}: oracle found conflicts the analyzer "
            f"missed: {sorted(overlap - predicted)[:5]}"
        )
        assert detected <= predicted, (
            f"{name}/{proto}: detector reported conflicts the analyzer "
            f"missed: {sorted(detected - predicted)[:5]}"
        )

    @pytest.mark.parametrize("name", SUITE)
    def test_race_free_workloads_predict_nothing(self, name, predictions):
        assert predictions[name] == {}

    @pytest.mark.parametrize("name", RACY_SUITE)
    def test_racy_workloads_predict_something(self, name, predictions):
        assert predictions[name]

    @pytest.mark.parametrize("name", RACY_SUITE)
    def test_detectors_confirm_predicted_lines(self, name, workloads, predictions):
        """On densely racy workloads the realized schedule manifests the
        predictions: every detected line is predicted, and at least one
        predicted line is actually caught."""
        predicted_lines = conflict_lines(predictions[name])
        caught = set()
        for proto in DETECTORS:
            result, _ = run_recorded(proto, workloads[name])
            caught |= conflict_lines(result.stats.conflicts)
        assert caught
        assert caught <= predicted_lines


# --------------------------------------------------------------------------
# randomized programs
# --------------------------------------------------------------------------

random_ops = st.lists(
    st.tuples(
        st.integers(0, 3),   # 0=read 1=write 2=locked write 3=barrier
        st.integers(0, 7),   # line offset in the shared pool
        st.integers(0, 1),   # shared-lock choice
    ),
    min_size=1,
    max_size=20,
)


def random_program(per_thread_ops):
    """Two threads over a shared 8-line pool with shared locks and one
    shared barrier (arrival counts equalized so episodes complete)."""
    builders = [TraceBuilder() for _ in per_thread_ops]
    arrivals = [0] * len(per_thread_ops)
    for tid, (builder, ops) in enumerate(zip(builders, per_thread_ops)):
        for op, offset, which in ops:
            addr = 0x1000 + offset * 8
            if op == 0:
                builder.read(addr, 8)
            elif op == 1:
                builder.write(addr, 8)
            elif op == 2:
                builder.acquire(50 + which)
                builder.write(addr, 8)
                builder.release(50 + which)
            else:
                arrivals[tid] += 1
                builder.barrier(0)
    most = max(arrivals)
    for tid, builder in enumerate(builders):
        for _ in range(most - arrivals[tid]):
            builder.barrier(0)
    return Program([b.build() for b in builders], name="random")


class TestRandomProgramContainment:
    @given(ops0=random_ops, ops1=random_ops)
    @settings(max_examples=20, deadline=None)
    def test_every_run_within_predictions(self, ops0, ops1):
        program = random_program([ops0, ops1])
        predicted = set(region_conflicts(program))
        for proto in DETECTORS:
            result, recorder = run_recorded(proto, program, num_cores=2)
            overlap = set(overlap_conflicts(recorder))
            detected = detected_keys(result.stats.conflicts)
            assert overlap <= predicted, proto
            assert detected <= predicted, proto
            if not predicted:
                assert not overlap and not detected, proto
