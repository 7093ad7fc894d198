"""Ground-truth oracle tests: detectors vs brute-force conflict analysis.

The oracles recompute, from a protocol-independent schedule log, which
region pairs conflicted under (a) region-overlap semantics and (b) CE's
second-access-during-first-region semantics.  The containment chain

    detector reports  ⊆  overlap conflicts          (all detectors)
    CE conflicts      ⊆  ARC reports                (ARC's lateness never
                                                     loses a CE conflict)
    overlap == ∅      ⇒  no detector reports

is checked on constructed programs and on randomized ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.core.oracle import (
    ScheduleRecorder,
    ce_conflicts,
    detected_keys,
    overlap_conflicts,
)
from repro.core.simulator import SYNC_OP_CYCLES, Simulator
from repro.trace import Program, TraceBuilder

DETECTORS = ("ce", "ce+", "arc")


def run_recorded(proto, program, num_cores=4):
    recorder = ScheduleRecorder()
    sim = Simulator(
        SystemConfig(num_cores=num_cores, protocol=proto), program, recorder=recorder
    )
    result = sim.run()
    return result, recorder


class TestRecorder:
    def test_accesses_recorded(self):
        program = Program([TraceBuilder().read(0).write(64).build()])
        result, recorder = run_recorded("mesi", program, num_cores=2)
        assert len(recorder.accesses) == 2
        assert recorder.accesses[0].line == 0
        assert not recorder.accesses[0].is_write
        assert recorder.accesses[1].is_write

    def test_region_intervals(self):
        t = TraceBuilder().read(0).acquire(1).read(64).release(1).build()
        _, recorder = run_recorded("mesi", Program([t]), num_cores=2)
        first = recorder.interval(0, 0)
        second = recorder.interval(0, 1)
        assert first.end is not None
        assert second.start >= first.end

    def test_open_region_overlaps_everything_after(self):
        t0 = TraceBuilder().read(0).build()  # single region, never closed
        _, recorder = run_recorded("mesi", Program([t0]), num_cores=2)
        interval = recorder.interval(0, 0)
        assert interval.end is None


class TestOracleOnConstructedPrograms:
    def racy(self):
        t0 = TraceBuilder()
        t0.write(0x7000, 8)
        for i in range(40):
            t0.read(0x100 + i * 64, 8, gap=50)
        t0.acquire(0)
        t0.release(0)
        t1 = TraceBuilder().write(0x7000, 8, gap=10).acquire(1).release(1).build()
        return Program([t0.build(), t1], name="racy")

    def test_oracle_finds_the_planted_race(self):
        _, recorder = run_recorded("mesi", self.racy())
        overlap = overlap_conflicts(recorder)
        ce = ce_conflicts(recorder)
        assert len(overlap) == 1
        assert set(ce) <= set(overlap)
        (conflict,) = overlap.values()
        assert conflict.line == 0x7000
        assert conflict.byte_mask == 0xFF

    @pytest.mark.parametrize("proto", DETECTORS)
    def test_detectors_match_oracle_on_planted_race(self, proto):
        result, recorder = run_recorded(proto, self.racy())
        detected = detected_keys(result.stats.conflicts)
        overlap = set(overlap_conflicts(recorder))
        assert detected == overlap

    def test_disjoint_program_empty_oracle(self):
        t0 = TraceBuilder().write(0x1000).write(0x1008).build()
        t1 = TraceBuilder().write(0x2000).write(0x2008).build()
        _, recorder = run_recorded("mesi", Program([t0, t1]))
        assert overlap_conflicts(recorder) == {}
        assert ce_conflicts(recorder) == {}


class TestDegenerateRegions:
    """Single-event programs and zero-length regions, pinned explicitly."""

    def test_single_event_program_is_conflict_free(self):
        t0 = TraceBuilder().write(0x1000).build()
        _, recorder = run_recorded("mesi", Program([t0]), num_cores=2)
        assert len(recorder.accesses) == 1
        assert recorder.interval(0, 0).end is None
        assert overlap_conflicts(recorder) == {}
        assert ce_conflicts(recorder) == {}

    def test_two_single_event_threads_race(self):
        """One event per thread: both open regions overlap, both oracles
        agree, and CE detects the pair eagerly."""
        t0 = TraceBuilder().write(0x1000, 8).build()
        t1 = TraceBuilder().write(0x1000, 8, gap=25).build()
        result, recorder = run_recorded("ce", Program([t0, t1]), num_cores=2)
        overlap = set(overlap_conflicts(recorder))
        ce = set(ce_conflicts(recorder))
        assert len(overlap) == 1
        assert ce == overlap
        assert detected_keys(result.stats.conflicts) == overlap

    def test_zero_length_region_exists_and_is_empty(self):
        """acquire immediately followed by release: the region between
        them contains no accesses but still gets a well-formed interval."""
        t0 = TraceBuilder().write(0x1000).acquire(0).release(0).build()
        _, recorder = run_recorded("mesi", Program([t0]), num_cores=2)
        empty = recorder.interval(0, 1)
        assert empty.end is not None
        assert empty.end >= empty.start
        assert not any(
            a.core == 0 and a.region == 1 for a in recorder.accesses
        )

    def test_zero_length_regions_never_conflict(self):
        """A thread that only opens and closes empty regions conflicts
        with nothing, no matter how racy the other thread is."""
        t0 = TraceBuilder().acquire(0).release(0).acquire(0).release(0).build()
        t1 = TraceBuilder().write(0x1000, 8).read(0x1000, 8).build()
        for proto in ("mesi",) + DETECTORS:
            result, recorder = run_recorded(proto, Program([t0, t1]), num_cores=2)
            assert overlap_conflicts(recorder) == {}
            assert ce_conflicts(recorder) == {}
            assert detected_keys(result.stats.conflicts) == set()

    def test_conflict_against_a_closed_single_event_region(self):
        """The earlier region closes before the later access: overlap
        still flags the wall-clock overlap, CE semantics do not."""
        t0 = TraceBuilder().write(0x1000, 8).acquire(0).release(0).build()
        t1 = TraceBuilder().read(0x1000, 8, gap=600).build()
        _, recorder = run_recorded("mesi", Program([t0, t1]), num_cores=2)
        overlap = set(overlap_conflicts(recorder))
        assert len(overlap) == 1
        assert ce_conflicts(recorder) == {}


def random_program(draw_ops):
    """Build a 2-thread program from op lists over a tiny address pool."""
    programs = []
    for tid, ops in enumerate(draw_ops):
        builder = TraceBuilder()
        for op_code, offset, gap in ops:
            if op_code == 0:
                builder.read(0x1000 + offset * 8, 8, gap=gap)
            elif op_code == 1:
                builder.write(0x1000 + offset * 8, 8, gap=gap)
            else:
                builder.acquire(100 + tid)
                builder.release(100 + tid)
        programs.append(builder.build())
    return Program(programs, name="random")


ops = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 15), st.integers(0, 30)),
    min_size=1,
    max_size=40,
)


class TestOracleProperties:
    @given(ops0=ops, ops1=ops)
    @settings(max_examples=30, deadline=None)
    def test_containment_chain(self, ops0, ops1):
        program = random_program([ops0, ops1])
        for proto in DETECTORS:
            result, recorder = run_recorded(proto, program, num_cores=2)
            detected = detected_keys(result.stats.conflicts)
            overlap = set(overlap_conflicts(recorder))
            # Photo-finish pairs (region end and conflicting access within
            # ~2 sync ops of each other) may serialize either way in the
            # engine; the completeness floor uses the margined oracle.
            ce = set(ce_conflicts(recorder, margin=2 * SYNC_OP_CYCLES + 10))
            # soundness ceiling: nothing reported beyond genuine overlaps
            assert detected <= overlap, proto
            # completeness floor for ARC: CE-semantics conflicts are
            # always caught (eagerly or by a region-end flush)
            if proto == "arc":
                assert ce <= detected
            # silence on race-free schedules
            if not overlap:
                assert not detected, proto

    @given(ops0=ops, ops1=ops)
    @settings(max_examples=20, deadline=None)
    def test_ce_reports_subset_of_ce_oracle_union_overlap(self, ops0, ops1):
        """CE/CE+ never report beyond the overlap oracle, and everything
        they report that the CE oracle also contains agrees on lines."""
        program = random_program([ops0, ops1])
        for proto in ("ce", "ce+"):
            result, recorder = run_recorded(proto, program, num_cores=2)
            detected = detected_keys(result.stats.conflicts)
            overlap = set(overlap_conflicts(recorder))
            assert detected <= overlap, proto
