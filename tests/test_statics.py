"""Unit tests for the source-level static conflict analyzer."""

import json
import textwrap

import numpy as np
import pytest

from repro.common.errors import StaticAnalysisError, StaticSoundnessError
from repro.core.batch import (
    CONTENDED,
    RO_SHARED,
    check_static_hint,
    classify_program,
)
from repro.statics import (
    MAY_CONFLICT,
    MUST_CONFLICT,
    analyze_source,
    analyze_workload,
    build_report,
)
from repro.statics.intervals import Interval, affine_render

CAPTURE_NAMES = (
    "capture-histogram",
    "capture-blackscholes",
    "capture-pipeline",
    "capture-workqueue",
    "capture-racy-counter",
)


def analyze(snippet: str, **kwargs):
    """Analyze a dedented workload snippet (standard imports prepended)."""
    header = (
        "from repro.capture.session import CaptureSession\n"
        "from repro.common.rng import make_rng\n"
        "from repro.synth.base import scaled\n"
    )
    return analyze_source(header + textwrap.dedent(snippet), **kwargs)


# --------------------------------------------------------------------------
# interval domain
# --------------------------------------------------------------------------


class TestIntervals:
    def test_point_and_range(self):
        p = Interval.point(3)
        assert p.is_point and p.contains(3) and not p.contains(4)
        r = Interval.from_range(1, 5)  # range() semantics: end-exclusive
        assert r.lo == 1 and r.hi == 4

    def test_top_absorbs(self):
        top = Interval.top()
        assert top.is_top
        assert top.hull(Interval.point(1)).is_top
        assert (top + Interval.point(1)).is_top

    def test_intersect_disjoint_is_none(self):
        assert Interval.from_range(0, 3).intersect(
            Interval.from_range(4, 9)
        ) is None
        got = Interval(0, 5).intersect(Interval(3, 9))
        assert (got.lo, got.hi) == (3, 5)

    def test_arithmetic(self):
        a = Interval(2, 4)
        b = Interval(10, 20)
        assert ((a + b).lo, (a + b).hi) == (12, 24)
        assert ((b - a).lo, (b - a).hi) == (6, 18)
        m = a * Interval.point(8)
        assert (m.lo, m.hi) == (16, 32)

    def test_floordiv_and_mod(self):
        a = Interval.from_range(10, 21)
        d = a // Interval.point(4)
        assert (d.lo, d.hi) == (2, 5)
        m = Interval.from_range(0, 100) % Interval.point(16)
        assert (m.lo, m.hi) == (0, 15)

    def test_three_valued_compare(self):
        assert Interval.from_range(0, 3).cmp_lt(Interval.from_range(4, 9))
        assert Interval.from_range(4, 9).cmp_lt(Interval.from_range(0, 3)) is False
        assert Interval.from_range(0, 5).cmp_lt(Interval.from_range(3, 9)) is None

    def test_affine_render_fits_slices(self):
        text = affine_render({
            0: Interval.from_range(0, 9),
            1: Interval.from_range(10, 19),
            2: Interval.from_range(20, 29),
        })
        assert "tid" in text

    def test_affine_render_constant(self):
        assert "tid" not in affine_render({0: Interval.point(4), 1: Interval.point(4)})


# --------------------------------------------------------------------------
# the abstract interpreter
# --------------------------------------------------------------------------


class TestInterpreter:
    def test_disjoint_slices_no_conflict(self):
        analysis = analyze("""
            def wl(num_threads=2, seed=1, scale=1.0):
                s = CaptureSession(num_threads, seed=seed, name="t")
                data = s.array(64, name="data")
                def worker(tid):
                    base = tid * 32
                    for i in range(base, base + 32):
                        data[i] = i
                return s.run(worker)
        """, num_threads=2)
        report = build_report(analysis)
        assert report.verdict == "no-conflict"
        assert report.suppressed["disjoint-footprint"] > 0

    def test_same_element_write_is_must(self):
        analysis = analyze("""
            def wl(num_threads=2, seed=1, scale=1.0):
                s = CaptureSession(num_threads, seed=seed, name="t")
                cell = s.struct(("v",), name="cell")
                def worker(tid):
                    cell.v = tid
                return s.run(worker)
        """, num_threads=2)
        report = build_report(analysis)
        assert report.verdict == MUST_CONFLICT

    def test_common_lock_proves_no_conflict(self):
        analysis = analyze("""
            def wl(num_threads=2, seed=1, scale=1.0):
                s = CaptureSession(num_threads, seed=seed, name="t")
                cell = s.struct(("v",), name="cell")
                lock = s.lock()
                def worker(tid):
                    with lock:
                        cell.v = cell.v + 1
                return s.run(worker)
        """, num_threads=2)
        report = build_report(analysis)
        assert report.verdict == "no-conflict"
        assert report.suppressed["common-lock"] > 0

    def test_ambiguous_lock_does_not_prove_exclusion(self):
        analysis = analyze("""
            def wl(num_threads=2, seed=1, scale=1.0):
                s = CaptureSession(num_threads, seed=seed, name="t")
                cell = s.struct(("v",), name="cell")
                locks = [s.lock(), s.lock()]
                def worker(tid):
                    rng = make_rng(seed, "pick", tid)
                    which = int(rng.integers(0, 2))
                    with locks[which]:
                        cell.v = cell.v + 1
                return s.run(worker)
        """, num_threads=2)
        report = build_report(analysis)
        assert report.verdict == MAY_CONFLICT

    def test_barrier_phases_prove_ordering(self):
        analysis = analyze("""
            def wl(num_threads=2, seed=1, scale=1.0):
                s = CaptureSession(num_threads, seed=seed, name="t")
                cell = s.struct(("v",), name="cell")
                done = s.barrier()
                def worker(tid):
                    if tid == 0:
                        cell.v = 1
                    done.wait()
                    if tid == 1:
                        cell.v = 2
                return s.run(worker)
        """, num_threads=2)
        report = build_report(analysis)
        assert analysis.phases.valid
        assert report.verdict == "no-conflict"
        assert report.suppressed["barrier-ordered"] > 0

    def test_conditional_barrier_poisons_phases(self):
        analysis = analyze("""
            def wl(num_threads=2, seed=1, scale=1.0):
                s = CaptureSession(num_threads, seed=seed, name="t")
                cell = s.struct(("v",), name="cell")
                done = s.barrier()
                def worker(tid):
                    rng = make_rng(seed, "c", tid)
                    if tid == 0:
                        cell.v = 1
                    if int(rng.integers(0, 2)) == 0:
                        done.wait()
                    done.wait()
                    if tid == 1:
                        cell.v = 2
                return s.run(worker)
        """, num_threads=2)
        assert not analysis.phases.valid
        assert build_report(analysis).verdict == MAY_CONFLICT

    def test_data_dependent_index_widens_to_may(self):
        analysis = analyze("""
            def wl(num_threads=2, seed=1, scale=1.0):
                s = CaptureSession(num_threads, seed=seed, name="t")
                data = s.array(8, name="data")
                def worker(tid):
                    rng = make_rng(seed, "ix", tid)
                    i = int(rng.integers(0, 8))
                    data[i] = tid
                return s.run(worker)
        """, num_threads=2)
        report = build_report(analysis)
        # index is unknown -> whole-array footprint -> MAY, never MUST
        assert report.verdict == MAY_CONFLICT

    def test_unanalyzable_call_taints_object(self):
        analysis = analyze("""
            import os

            def wl(num_threads=2, seed=1, scale=1.0):
                s = CaptureSession(num_threads, seed=seed, name="t")
                data = s.array(8, name="data")
                def worker(tid):
                    os.mystery(data)  # opaque call: data escapes
                return s.run(worker)
        """, num_threads=2, function="wl")
        [obj] = analysis.objects
        assert obj.tainted
        # tainted objects expand to whole-object sites on every thread
        assert build_report(analysis).verdict == MAY_CONFLICT

    def test_abstract_thread_count_rejected(self):
        with pytest.raises(StaticAnalysisError):
            analyze("""
                import os
                def wl(num_threads=2, seed=1, scale=1.0):
                    s = CaptureSession(int(os.environ["N"]), seed=seed, name="t")
                    return s.run(lambda tid: None)
            """, num_threads=2)

    def test_session_less_source_rejected(self):
        with pytest.raises(StaticAnalysisError):
            analyze_source("def nothing():\n    return 1\n")

    def test_allocator_mirror_matches_session(self):
        from repro.capture.session import CaptureSession

        analysis = analyze("""
            def wl(num_threads=2, seed=9, scale=1.0):
                s = CaptureSession(num_threads, seed=seed, name="mirror")
                a = s.array(10, name="a")
                b = s.struct(("x", "y"), name="b")
                c = s.array(3, name="c", element_size=4)
                return s.run(lambda tid: None)
        """, num_threads=2, seed=9)
        live = CaptureSession(2, seed=9, name="mirror")
        real = [
            live.array(10, name="a").base,
            live.struct(("x", "y"), name="b").base,
            live.array(3, name="c", element_size=4).base,
        ]
        assert [obj.base for obj in analysis.objects] == real


# --------------------------------------------------------------------------
# shipped workload verdicts
# --------------------------------------------------------------------------


class TestWorkloadVerdicts:
    @pytest.mark.parametrize(
        "name", ("capture-histogram", "capture-blackscholes", "capture-pipeline")
    )
    def test_clean_workloads_prove_no_conflict(self, name):
        report = build_report(analyze_workload(name, scale=0.2))
        assert report.verdict == "no-conflict"

    def test_workqueue_is_may_due_to_ambiguous_steals(self):
        report = build_report(analyze_workload("capture-workqueue", scale=0.2))
        assert report.verdict == MAY_CONFLICT
        assert all(p.verdict == MAY_CONFLICT for p in report.pairs)

    def test_racy_counter_is_must_when_unrolled(self):
        # scale 0.2 -> 16 increments <= unroll limit -> `i % 4` concrete
        report = build_report(analyze_workload("capture-racy-counter", scale=0.2))
        assert report.verdict == MUST_CONFLICT

    def test_racy_counter_degrades_to_may_in_interval_mode(self):
        # scale 1.0 -> 60 increments > unroll limit -> branch abstract
        report = build_report(analyze_workload("capture-racy-counter", scale=1.0))
        assert report.verdict == MAY_CONFLICT

    def test_truncated_unroll_notes_widening(self):
        """When a loop's trip count is *known* but over the unroll
        limit, the MAY demotion must be announced, not silent."""
        analysis = analyze_workload("capture-racy-counter", scale=1.0)
        widened = [n for n in analysis.notes if "analysis widened" in n]
        assert widened, analysis.notes
        assert "exceeds the unroll limit 32" in widened[0]
        assert "trip count 60" in widened[0]

    def test_fully_unrolled_loop_has_no_widening_note(self):
        analysis = analyze_workload("capture-racy-counter", scale=0.2)
        assert not any("analysis widened" in n for n in analysis.notes)

    def test_unknown_workload_name(self):
        with pytest.raises(StaticAnalysisError):
            analyze_workload("capture-nonexistent")

    @pytest.mark.parametrize("name", CAPTURE_NAMES)
    def test_reports_serialize_to_json(self, name):
        report = build_report(analyze_workload(name, scale=0.2))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["verdict"] == report.verdict
        assert payload["objects"]
        text = report.render_text()
        assert report.verdict.upper() in text


# --------------------------------------------------------------------------
# the static line hint
# --------------------------------------------------------------------------


class TestLineHint:
    @pytest.mark.parametrize("name", CAPTURE_NAMES)
    def test_hint_accepted_by_exact_validation(self, name):
        from repro.capture.workloads import CAPTURE_WORKLOADS

        report = build_report(analyze_workload(name, seed=3, scale=0.2))
        hint = report.line_hint()
        assert hint is not None
        program = CAPTURE_WORKLOADS[name](num_threads=4, seed=3, scale=0.2)
        check_static_hint(program, 64, hint)

    def test_corrupted_hint_rejected(self):
        from repro.capture.workloads import CAPTURE_WORKLOADS

        report = build_report(
            analyze_workload("capture-racy-counter", seed=3, scale=0.2)
        )
        hint = report.line_hint()
        assert CONTENDED in hint.codes
        bad_codes = hint.codes.copy()
        bad_codes[bad_codes == CONTENDED] = 0  # claim privately owned
        bad = type(hint)(hint.lines, bad_codes)
        program = CAPTURE_WORKLOADS["capture-racy-counter"](
            num_threads=4, seed=3, scale=0.2
        )
        with pytest.raises(StaticSoundnessError):
            check_static_hint(program, 64, bad)

    def test_ro_shared_hint_over_written_private_line_rejected(self):
        from repro.trace import Program, TraceBuilder

        t0 = TraceBuilder().write(0x1000).build()
        t1 = TraceBuilder().read(0x2000).build()
        program = Program([t0, t1])
        exact = classify_program(program, 64)
        assert exact.code_of(0x1000) == 0  # private to thread 0, written
        hint = type(exact)(
            exact.lines.copy(),
            np.full(len(exact.codes), RO_SHARED, dtype=np.int64),
        )
        with pytest.raises(StaticSoundnessError):
            check_static_hint(program, 64, hint)

    def test_ro_shared_hint_over_readonly_private_line_accepted(self):
        from repro.trace import Program, TraceBuilder

        t0 = TraceBuilder().read(0x1000).build()
        t1 = TraceBuilder().read(0x2000).build()
        program = Program([t0, t1])
        exact = classify_program(program, 64)
        hint = type(exact)(
            exact.lines.copy(),
            np.full(len(exact.codes), RO_SHARED, dtype=np.int64),
        )
        check_static_hint(program, 64, hint)


# --------------------------------------------------------------------------
# the CLI
# --------------------------------------------------------------------------


class TestStaticlintCli:
    def test_default_run_over_all_workloads(self, capsys):
        from repro.tools.staticlint import main

        assert main(["--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        for name in CAPTURE_NAMES:
            assert name.replace("-", "_") in out

    def test_fail_on_must_conflict(self, capsys):
        from repro.tools.staticlint import main

        code = main([
            "capture-racy-counter", "--scale", "0.2",
            "--fail-on", "must-conflict",
        ])
        assert code == 3
        assert "MUST-CONFLICT" in capsys.readouterr().out

    def test_clean_workloads_pass_may_conflict_gate(self, capsys):
        from repro.tools.staticlint import main

        assert main([
            "capture-histogram", "capture-blackscholes", "capture-pipeline",
            "--scale", "0.2", "--fail-on", "may-conflict",
        ]) == 0

    def test_json_format(self, capsys):
        from repro.tools.staticlint import main

        assert main(["capture-histogram", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["verdict"] == "no-conflict"

    def test_directory_target_skips_sessionless_files(self, tmp_path, capsys):
        from repro.tools.staticlint import main

        (tmp_path / "helper.py").write_text("def util():\n    return 3\n")
        (tmp_path / "wl.py").write_text(textwrap.dedent("""
            from repro.capture.session import CaptureSession

            def build(num_threads=2, seed=1, scale=1.0):
                s = CaptureSession(num_threads, seed=seed, name="t")
                data = s.array(4, name="data")
                def worker(tid):
                    data[tid] = tid
                return s.run(worker)
        """))
        assert main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out
        assert "data" in out

    def test_examples_directory_analyzes(self, capsys):
        from repro.tools.staticlint import main

        assert main(["examples/capture"]) == 0
        out = capsys.readouterr().out
        assert "NO-CONFLICT" in out
