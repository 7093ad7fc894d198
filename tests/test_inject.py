"""Metamorphic race-injection tests.

Every conflict-free suite workload, after :func:`inject_race`, must make
every detector report a conflict — and only on the planted line — and
the happens-before analyzer predict exactly one region conflict there.
"""

import functools

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import TraceError
from repro.core.api import run_program
from repro.synth import SUITE, build_workload
from repro.tools.analyze import analyze_program
from repro.trace import validate_program
from repro.verify.inject import inject_race, injected_line

THREADS = 4
SCALE = 0.05
DETECTORS = ("ce", "ce+", "arc")


class TestInjectionMechanics:
    def test_injected_program_still_valid(self):
        program = build_workload("lock-counter", THREADS, 1, SCALE)
        racy = inject_race(program)
        validate_program(racy, 64)
        assert racy.name.endswith("+race")

    def test_planted_line_is_fresh(self):
        program = build_workload("pipeline-ferret", THREADS, 1, SCALE)
        line = injected_line(program)
        for trace in program.traces:
            touched = trace.touched_lines(64)
            assert line not in touched

    def test_same_thread_rejected(self):
        program = build_workload("lock-counter", THREADS, 1, SCALE)
        with pytest.raises(TraceError):
            inject_race(program, first_thread=1, second_thread=1)

    def test_out_of_range_thread_rejected(self):
        program = build_workload("lock-counter", THREADS, 1, SCALE)
        with pytest.raises(TraceError):
            inject_race(program, second_thread=99)

    def test_original_program_untouched(self):
        program = build_workload("lock-counter", THREADS, 1, SCALE)
        before = program.num_events()
        inject_race(program)
        assert program.num_events() == before


@functools.lru_cache(maxsize=None)
def predicted_lines(name):
    """The analyzer's predicted conflict lines, clean and injected
    (once per workload, not once per detector)."""
    program = build_workload(name, THREADS, 1, SCALE)
    return tuple(
        [c["line"] for c in analyze_program(p, lint=False)["races"][
            "region_conflicts"]]
        for p in (program, inject_race(program))
    )


@pytest.mark.parametrize("name", SUITE)
@pytest.mark.parametrize("proto", DETECTORS)
class TestEveryWorkloadEveryDetector:
    def test_injected_race_is_caught_on_the_planted_line(self, name, proto):
        program = build_workload(name, THREADS, 1, SCALE)
        racy = inject_race(program)
        line = injected_line(program)
        cfg = SystemConfig(num_cores=THREADS, protocol=proto)

        clean = run_program(cfg, program)
        assert clean.num_conflicts == 0, (name, proto, "clean run must be silent")

        result = run_program(cfg, racy)
        assert result.num_conflicts > 0, (name, proto)
        lines = {c.line_addr for c in result.stats.conflicts}
        assert lines == {line}, (name, proto, lines)

        assert predicted_lines(name) == ([], [line]), name


class TestReadVariant:
    @pytest.mark.parametrize("proto", DETECTORS)
    def test_write_read_race_detected(self, proto):
        program = build_workload("taskqueue-swaptions", THREADS, 1, SCALE)
        racy = inject_race(program, second_is_write=False)
        result = run_program(
            SystemConfig(num_cores=THREADS, protocol=proto), racy
        )
        assert result.num_conflicts > 0, proto
        for record in result.stats.conflicts:
            assert record.kind() != "W-W"

    def test_mesi_stays_silent(self):
        program = build_workload("lock-counter", THREADS, 1, SCALE)
        racy = inject_race(program)
        result = run_program(SystemConfig(num_cores=THREADS), racy)
        assert result.num_conflicts == 0
