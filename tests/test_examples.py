"""Smoke tests: every example script runs and prints what it promises.

Examples execute in-process (import + main) with a monkeypatched argv
where needed, so breakage in the public API surfaces here.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str], capsys) -> str:
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", [], capsys)
        assert "runtime (vs MESI)" in out
        assert "conflicts detected" in out

    def test_conflict_detection_demo(self, capsys):
        out = run_example("conflict_detection_demo.py", [], capsys)
        assert "W-W conflict" in out
        assert "RegionConflictError" in out
        assert out.count("0 conflicts") == 3  # false-sharing silence x3

    def test_network_saturation_quick(self, capsys):
        out = run_example("network_saturation.py", ["--quick"], capsys)
        assert "peak util" in out
        assert "8 cores" in out

    def test_core_count_scaling_tiny(self, capsys):
        out = run_example("core_count_scaling.py", ["--tiny"], capsys)
        assert "runtime vs MESI" in out
        assert "flit-hops vs MESI" in out

    def test_verification_demo(self, capsys):
        out = run_example("verification_demo.py", [], capsys)
        assert "detected ⊆ overlap: True" in out
        assert "clean run 0 conflicts" in out
        assert "injected run" in out


@pytest.mark.slow
class TestCaptureExamples:
    def test_histogram(self, capsys):
        out = run_example("capture/histogram.py", [], capsys)
        assert "captured histogram-example" in out
        assert "total 384 == items 384: True" in out
        assert "conflicts 0" in out

    def test_blackscholes(self, capsys):
        out = run_example("capture/blackscholes.py", [], capsys)
        assert "identical to in-memory run: True" in out
        assert "x smaller" in out

    def test_pipeline(self, capsys):
        out = run_example("capture/pipeline.py", [], capsys)
        assert "captured capture-pipeline" in out
        assert "0 conflicts" in out

    def test_workqueue(self, capsys):
        out = run_example("capture/workqueue.py", [], capsys)
        assert "saved replay identical to in-memory replay: True" in out

    def test_racy_counter(self, capsys):
        out = run_example("capture/racy_counter.py", [], capsys)
        assert "detected ⊆ overlap: True" in out
        assert "conflicts reported" in out
