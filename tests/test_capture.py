"""The capture subsystem: determinism, SFR semantics, discipline, oracle.

The load-bearing guarantees:

* repeated captures with the same seed are **byte-identical** (the
  whole subsystem is useless for a deterministic simulator otherwise);
* recorded programs obey every rule `trace/validate.py` enforces on the
  synthetic workloads, with SFR boundaries falling out of the recorded
  sync events;
* misuse (deadlock, double-acquire, exiting with held locks) raises
  CaptureError instead of producing a corrupt trace;
* detector reports on captured programs stay inside the ground-truth
  oracle's overlap conflicts;
* a capture saved to ``.rtb`` replays to the committed golden summaries.
"""

import numpy as np
import pytest

from repro.capture import (
    CAPTURE_WORKLOADS,
    CaptureError,
    CaptureSession,
    capture_racy_counter,
)
from repro.common.config import SystemConfig
from repro.core.api import run_program
from repro.core.oracle import ScheduleRecorder, detected_keys, overlap_conflicts
from repro.core.simulator import Simulator
from repro.synth import build_workload
from repro.trace.events import ACQUIRE, BARRIER, RELEASE
from repro.trace.validate import validate_program

THREADS = 4


def programs_identical(a, b) -> bool:
    return (
        a.name == b.name
        and a.barrier_participants == b.barrier_participants
        and len(a.traces) == len(b.traces)
        and all(
            np.array_equal(ta.events, tb.events)
            for ta, tb in zip(a.traces, b.traces)
        )
    )


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(CAPTURE_WORKLOADS))
    def test_repeated_captures_byte_identical(self, name):
        build = CAPTURE_WORKLOADS[name]
        first = build(THREADS, seed=3, scale=0.2)
        second = build(THREADS, seed=3, scale=0.2)
        assert programs_identical(first, second)

    def test_seed_changes_schedule(self):
        # the racy counter's interleaving is schedule-dependent, so two
        # seeds must not record the same event streams
        a = capture_racy_counter(THREADS, seed=1, scale=0.2)
        b = capture_racy_counter(THREADS, seed=2, scale=0.2)
        assert not programs_identical(a, b)


class TestCapturedPrograms:
    @pytest.mark.parametrize("name", sorted(CAPTURE_WORKLOADS))
    def test_validates_and_has_regions(self, name):
        program = CAPTURE_WORKLOADS[name](THREADS, seed=1, scale=0.2)
        validate_program(program, 64)
        stats = program.stats()
        assert stats.num_accesses > 0
        # SFR inference: regions == sync ops + one trailing region/thread
        assert stats.num_regions == stats.num_sync_ops + THREADS

    def test_sfr_boundaries_at_sync_edges(self):
        session = CaptureSession(2, seed=1, name="sfr")
        shared = session.array(8, name="shared")
        lock = session.lock()
        done = session.barrier()

        def worker(tid):
            shared[tid] = 1
            with lock:
                shared[2 + tid] = 2
            done.wait()
            shared[4 + tid] = 3

        program = session.run(worker)
        trace = program.traces[0]
        kinds = trace.events["kind"].tolist()
        # one write, ACQUIRE, one write, RELEASE, BARRIER, one write:
        # three sync events => four regions on this thread
        assert [k for k in kinds if k in (ACQUIRE, RELEASE, BARRIER)] == [
            ACQUIRE,
            RELEASE,
            BARRIER,
        ]
        assert trace.num_regions() == 4
        assert program.barrier_participants == {0: frozenset({0, 1})}

    def test_line_straddle_split(self):
        session = CaptureSession(1, seed=1, name="straddle")
        base = session.alloc(128)

        def worker(tid):
            session.record_write(base + 60, 8)  # crosses the line at 64

        program = session.run(worker)
        events = program.traces[0].events
        assert len(events) == 2
        assert events["size"].tolist() == [4, 4]
        assert events["addr"].tolist() == [base + 60, base + 64]

    def test_compute_gaps_recorded(self):
        session = CaptureSession(1, seed=1, name="gaps")
        shared = session.array(2)

        def worker(tid):
            session.compute(17)
            shared[0] = 1

        program = session.run(worker)
        assert program.traces[0].events["gap"].tolist() == [17]


class TestDiscipline:
    def test_deadlock_detected(self):
        session = CaptureSession(2, seed=1, name="deadlock")
        a, b = session.lock(), session.lock()

        def worker(tid):
            first, second = (a, b) if tid == 0 else (b, a)
            with first:
                with second:
                    pass

        with pytest.raises(CaptureError, match="deadlock"):
            session.run(worker)

    def test_double_acquire_rejected(self):
        session = CaptureSession(1, seed=1, name="dbl")
        lock = session.lock()

        def worker(tid):
            with lock:
                lock.acquire()

        with pytest.raises(CaptureError, match="re-acquire"):
            session.run(worker)

    def test_exit_holding_lock_rejected(self):
        session = CaptureSession(1, seed=1, name="held")
        lock = session.lock()

        def worker(tid):
            lock.acquire()

        with pytest.raises(CaptureError, match="holding"):
            session.run(worker)

    def test_foreign_thread_rejected(self):
        import threading

        session = CaptureSession(1, seed=1, name="foreign")
        shared = session.array(1)
        errors = []

        def worker(tid):
            def rogue():
                try:
                    shared[0] = 1
                except CaptureError as exc:
                    errors.append(exc)

            t = threading.Thread(target=rogue)
            t.start()
            t.join()

        session.run(worker)
        assert len(errors) == 1

    def test_one_shot_session(self):
        session = CaptureSession(1, seed=1, name="once")
        session.run(lambda tid: None)
        with pytest.raises(CaptureError, match="exactly one run"):
            session.run(lambda tid: None)


class TestOracleContainment:
    @pytest.mark.parametrize(
        "name", ["capture-racy-counter", "capture-histogram"]
    )
    @pytest.mark.parametrize("protocol", ["ce", "ce+", "arc"])
    def test_detected_within_overlap(self, name, protocol):
        program = build_workload(name, num_threads=THREADS, seed=2, scale=0.3)
        recorder = ScheduleRecorder()
        cfg = SystemConfig(num_cores=THREADS, protocol=protocol)
        result = Simulator(cfg, program, recorder=recorder).run()
        overlap = set(overlap_conflicts(recorder))
        assert detected_keys(result.stats.conflicts) <= overlap

    def test_racy_counter_actually_conflicts(self):
        program = build_workload(
            "capture-racy-counter", num_threads=THREADS, seed=2, scale=0.3
        )
        cfg = SystemConfig(num_cores=THREADS, protocol="arc")
        assert run_program(cfg, program).num_conflicts > 0


class TestCaptureCli:
    def test_capture_replay_summary(self, tmp_path, capsys):
        from repro.tools.capture_cli import main

        rtb = tmp_path / "h.rtb"
        assert main(
            ["capture", "capture-histogram", "-o", str(rtb),
             "--threads", "4", "--seed", "1", "--scale", "0.2"]
        ) == 0
        assert rtb.exists()
        assert main(["replay", str(rtb), "--protocol", "ce"]) == 0
        assert main(["summary", str(rtb)]) == 0
        out = capsys.readouterr().out
        assert "captured capture-histogram" in out
        assert "Replay: capture-histogram" in out

    def test_matches_committed_golden(self, tmp_path, capsys):
        """The CI smoke step's golden file stays reproducible locally."""
        import json
        from pathlib import Path

        from repro.tools.capture_cli import main

        golden = (
            Path(__file__).parent / "golden" / "capture_smoke.json"
        ).read_text()
        rtb = tmp_path / "smoke.rtb"
        main(["capture", "capture-histogram", "-o", str(rtb),
              "--threads", "4", "--seed", "1", "--scale", "0.2"])
        capsys.readouterr()
        parts = []
        for protocol in ("mesi", "ce"):
            main(["replay", str(rtb), "--protocol", protocol,
                  "--format", "json"])
            parts.append(capsys.readouterr().out)
        assert "".join(parts) == golden
        assert json.loads(parts[0])["runs"]["mesi"]["conflicts"] == 0


class TestWorkloadRegistry:
    def test_registered_and_buildable(self):
        program = build_workload(
            "capture-pipeline", num_threads=THREADS, seed=1, scale=0.1
        )
        assert program.name == "capture-pipeline"
        validate_program(program, 64)

    def test_pipeline_needs_two_threads(self):
        with pytest.raises(CaptureError, match="at least 2"):
            build_workload("capture-pipeline", num_threads=1, seed=1, scale=0.1)
