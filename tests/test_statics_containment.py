"""Soundness containment: static analyzer ⊇ dynamic analyzer ⊇ detectors.

The static analyzer reads only source; the dynamic analyzer reads one
captured schedule; the detectors see one simulated run of that
schedule.  Information only ever shrinks along that chain, so:

    detector reports (run)  ⊆  region_conflicts(capture)  ⊆  static MAY

checked over all five shipped ``capture-*`` workloads (both inner
containments, for CE / CE+ / ARC) and over hypothesis-generated
capture-DSL programs fuzzing the abstract interpreter against the real
capture runtime.  The static line classification is additionally
checked to over-approximate the exact one on every program the fuzzer
produces.

The reverse direction is *precision*, not soundness: a deliberately
data-dependent workload shows the analyzer widening to MAY-CONFLICT on
a schedule that never conflicts, and the CLI renders that as a
precision diff (exit 0), never a soundness violation (exit 4).
"""

import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.regions import region_conflicts
from repro.capture.workloads import CAPTURE_WORKLOADS
from repro.common.config import SystemConfig
from repro.core.batch import check_static_hint
from repro.core.simulator import Simulator
from repro.statics import analyze_source, analyze_workload, build_report, diff_dynamic
from repro.verify import detected_keys

DETECTORS = ("ce", "ce+", "arc")
CAPTURE_NAMES = tuple(sorted(CAPTURE_WORKLOADS))

THREADS = 4
SEED = 11
SCALE = 0.2


@pytest.fixture(scope="module")
def captures():
    return {
        name: CAPTURE_WORKLOADS[name](
            num_threads=THREADS, seed=SEED, scale=SCALE
        )
        for name in CAPTURE_NAMES
    }


@pytest.fixture(scope="module")
def reports():
    return {
        name: build_report(
            analyze_workload(name, num_threads=THREADS, seed=SEED, scale=SCALE)
        )
        for name in CAPTURE_NAMES
    }


class TestCaptureContainment:
    @pytest.mark.parametrize("name", CAPTURE_NAMES)
    def test_static_covers_dynamic_predictions(self, name, captures, reports):
        """Static MAY/MUST pairs cover every dynamic HB region conflict."""
        report = reports[name]
        for conflict in region_conflicts(captures[name]).values():
            assert report.covers(
                conflict.line, conflict.first_core, conflict.second_core
            ), (
                f"{name}: dynamic conflict on {conflict.line:#x} between "
                f"threads {conflict.first_core}/{conflict.second_core} not "
                "covered statically — analyzer soundness bug"
            )

    @pytest.mark.parametrize("name", CAPTURE_NAMES)
    @pytest.mark.parametrize("proto", DETECTORS)
    def test_detectors_within_dynamic_within_static(
        self, name, proto, captures, reports
    ):
        """The full chain on a real simulated run of each capture."""
        program = captures[name]
        predicted = set(region_conflicts(program))
        result = Simulator(
            SystemConfig(num_cores=THREADS, protocol=proto), program
        ).run()
        detected = detected_keys(result.stats.conflicts)
        assert detected <= predicted, f"{name}/{proto}"
        report = reports[name]
        for key in detected:
            line, first_core, _r1, second_core, _r2 = key
            assert report.covers(line, first_core, second_core), (
                f"{name}/{proto}: detector-reported conflict not covered "
                "statically"
            )

    @pytest.mark.parametrize("name", CAPTURE_NAMES)
    def test_diff_dynamic_reports_no_soundness_violations(
        self, name, captures, reports
    ):
        diff = diff_dynamic(reports[name], captures[name])
        assert diff["soundness"] == []

    @pytest.mark.parametrize("name", CAPTURE_NAMES)
    def test_line_hint_passes_exact_validation(self, name, captures, reports):
        hint = reports[name].line_hint()
        assert hint is not None
        check_static_hint(captures[name], 64, hint)

    def test_racy_counter_dynamic_conflicts_are_agreed(
        self, captures, reports
    ):
        """The one genuinely racy capture: the dynamic conflicts exist and
        every one lands in the static MUST pairs."""
        diff = diff_dynamic(
            reports["capture-racy-counter"], captures["capture-racy-counter"]
        )
        assert diff["agreed"]
        assert diff["soundness"] == []


# --------------------------------------------------------------------------
# deliberate imprecision: MAY-CONFLICT statically, race-free dynamically
# --------------------------------------------------------------------------

IMPRECISE_SOURCE = textwrap.dedent('''
    from repro.capture.session import CaptureSession
    from repro.common.rng import make_rng


    def capture_scatter(num_threads=4, seed=1, scale=1.0):
        """Data-dependent scatter that happens to stay disjoint.

        Each thread writes slots ``k * num_threads + tid`` for a
        rng-chosen k: the *element* is provably thread-unique, but the
        index is data-dependent, so the static analyzer sees TOP and
        widens every write to the whole array.
        """
        session = CaptureSession(num_threads, seed=seed, name="scatter")
        data = session.array(32, name="data")

        def worker(tid):
            rng = make_rng(seed, "scatter", tid)
            for _ in range(6):
                k = int(rng.integers(0, 32 // num_threads))
                data[k * num_threads + tid] = tid

        return session.run(worker)
''')


class TestDeliberateImprecision:
    def test_static_may_but_dynamically_race_free(self):
        analysis = analyze_source(
            IMPRECISE_SOURCE, num_threads=THREADS, seed=SEED
        )
        report = build_report(analysis)
        assert report.verdict == "may-conflict"

        namespace: dict = {}
        exec(IMPRECISE_SOURCE, namespace)
        program = namespace["capture_scatter"](
            num_threads=THREADS, seed=SEED
        )
        assert region_conflicts(program) == {}

        diff = diff_dynamic(report, program)
        assert diff["soundness"] == []
        assert diff["precision"]  # the widening is visible, and labelled

    def test_cli_renders_precision_not_soundness(self, tmp_path, capsys):
        from repro.tools.staticlint import main

        target = tmp_path / "scatter.py"
        target.write_text(IMPRECISE_SOURCE)
        code = main([
            str(target), "--threads", str(THREADS), "--seed", str(SEED),
            "--diff-dynamic",
        ])
        out = capsys.readouterr().out
        assert code == 0  # precision loss is not a failure
        assert "precision loss" in out
        assert "SOUNDNESS" not in out

    def test_cli_workqueue_diff_is_precision_only(self, capsys):
        from repro.tools.staticlint import main

        code = main([
            "capture-workqueue", "--scale", "0.2", "--diff-dynamic",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "SOUNDNESS" not in out


# --------------------------------------------------------------------------
# hypothesis: fuzz the interpreter against the real capture runtime
# --------------------------------------------------------------------------

#: one worker statement; the same op list runs on every thread
#: (kind, a, b) — a/b parameterize indices, lock and field choices
worker_ops = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 31), st.integers(0, 31)),
    min_size=1,
    max_size=12,
)


def build_fuzz_source(ops) -> str:
    """Compile an op list into a capture-DSL workload's source text."""
    body: list[str] = ['rng = make_rng(seed, "fuzz", tid)']
    for kind, a, b in ops:
        if kind == 0:
            body.append(f"_ = data[{a % 16}]")
        elif kind == 1:
            body.append(f"data[{a % 16}] = tid")
        elif kind == 2:  # tid-affine slice
            body.append(f"data[(tid * {1 + a % 4} + {b % 4}) % 16] = tid")
        elif kind == 3:  # data-dependent index
            body.append("data[int(rng.integers(0, 16))] = tid")
        elif kind == 4:
            field = "a" if a % 2 == 0 else "b"
            body.append(f"state.{field} = state.{field} + 1")
        elif kind == 5:  # definite lock
            body.append(f"with locks[{a % 2}]:")
            body.append(f"    state.a = state.a + {1 + b % 3}")
        elif kind == 6:  # ambiguous lock choice
            body.append("with locks[int(rng.integers(0, 2))]:")
            body.append(f"    data[{b % 16}] = tid")
        elif kind == 7:  # top-level barrier (same count on all threads)
            body.append("gate.wait()")
        else:  # thread-conditional write
            body.append(f"if tid == {a % 2}:")
            body.append(f"    data[{b % 16}] = tid")
    indented = "\n".join("            " + line for line in body)
    return (
        "from repro.capture.session import CaptureSession\n"
        "from repro.common.rng import make_rng\n"
        "\n"
        "def capture_fuzz(num_threads=2, seed=1, scale=1.0):\n"
        '    session = CaptureSession(num_threads, seed=seed, name="fuzz")\n'
        '    data = session.array(16, name="data")\n'
        '    state = session.struct(("a", "b"), name="state")\n'
        "    locks = [session.lock(), session.lock()]\n"
        "    gate = session.barrier()\n"
        "\n"
        "    def worker(tid):\n" + indented + "\n"
        "    return session.run(worker)\n"
    )


class TestFuzzedContainment:
    @given(ops=worker_ops, seed=st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_static_covers_dynamic_on_random_programs(self, ops, seed):
        source = build_fuzz_source(ops)
        report = build_report(
            analyze_source(source, num_threads=2, seed=seed)
        )

        namespace: dict = {}
        exec(source, namespace)
        program = namespace["capture_fuzz"](num_threads=2, seed=seed)

        for conflict in region_conflicts(program).values():
            assert report.covers(
                conflict.line, conflict.first_core, conflict.second_core
            ), source

        hint = report.line_hint()
        if hint is not None:
            check_static_hint(program, 64, hint)
