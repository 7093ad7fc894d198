"""Tests for the claim catalogue, ``repro run --report`` and the run CLI."""

import json
import subprocess
import sys

import pytest

from repro.harness import REGISTRY, Settings, TextTable, run_experiment
from repro.harness.report import Report
from repro.harness.run import main as run_main
from repro.harness.shapes import CHECKERS, ShapeCheck, claim, run_checks

from .test_tools import SRC_ENV

QUICK = Settings.quick()


class TestClaim:
    def test_margin_is_relative_to_the_threshold_or_absolute_against_zero(self):
        check = claim("x", ("a", 1.2, ">=", 1.0), ("b", 0.5, "<", 1.0))
        assert check.passed and check.margin == pytest.approx(0.2)
        assert check.detail == "margin +20.0%; tightest of 2; a: 1.200 >= 1.000"
        check = claim("x", ("recalls", 7, ">", 0))
        assert (check.margin, check.detail) == (
            7, "margin +7 (absolute); recalls: 7 > 0"
        )

    def test_holding_equalities_are_exact(self):
        check = claim("x", ("a", 0, "==", 0), ("b", 3, "==", 3))
        assert check.passed and check.margin is None
        assert check.detail.startswith("exact; ")

    def test_failure_names_the_worst_term(self):
        check = claim(
            "x", ("a", 2.0, ">", 1.0), ("b", 3, "==", 1), ("c", 0.5, ">=", 1.0)
        )
        assert not check.passed and check.margin == pytest.approx(-2.0)
        assert check.detail == "margin -200.0%; worst of 3; b: 3 == 1"


class TestShapeChecks:
    def test_every_checker_targets_a_registered_experiment(self):
        assert set(CHECKERS) <= set(REGISTRY)

    def test_unchecked_experiment_returns_empty(self):
        assert run_checks("captured_workloads", [], QUICK) == []

    @pytest.mark.parametrize(
        "exp_id", ["table3_conflicts", "abl_arc_lazy_clear", "abl_aim_writeback"]
    )
    def test_checks_pass_at_quick_preset(self, exp_id):
        tables = run_experiment(exp_id, QUICK)
        checks = run_checks(exp_id, tables, QUICK)
        assert checks, exp_id
        for check in checks:
            assert isinstance(check, ShapeCheck)
            assert check.passed, (exp_id, check.claim, check.detail)

    def test_core_count_claim_reads_the_settings(self):
        tables = run_experiment("fig_perf_scaling", QUICK)
        other = Settings(num_threads=4, scale=0.05, core_counts=(2, 8))
        (claim_text,) = [
            c.claim for c in run_checks("fig_perf_scaling", tables, other)
            if not c.passed
        ]
        assert "core count" in claim_text


class TestReport:
    def test_report_subset(self, tmp_path, capsys):
        argv = ["table3_conflicts", "--preset", "quick", "--no-cache"]
        assert run_main(argv) == 0
        plain = capsys.readouterr().out
        out = tmp_path / "r.md"
        assert run_main(argv + ["--report", str(out)]) == 0
        assert capsys.readouterr().out == plain
        text = out.read_text()
        assert text.startswith("# Experiment report")
        assert "## table3_conflicts" in text
        assert "Shape checks passed: **4/4**" in text
        assert "FAIL" not in text

    def test_report_cli_writes_file(self, tmp_path):
        out = tmp_path / "report.md"
        rc = run_main(
            ["table1_system_config", "--preset", "quick", "--report", str(out)]
        )
        assert rc == 0
        assert "Table I" in out.read_text()

    def test_failed_claim_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(
            CHECKERS, "table1_system_config",
            lambda tables, settings: [claim("mutated", ("m", 1, "<", 0))],
        )
        out = tmp_path / "r.md"
        rc = run_main(
            ["table1_system_config", "--preset", "quick", "--report", str(out)]
        )
        assert rc == 3
        assert "* **FAIL**: mutated" in out.read_text()
        assert "0/1 claims hold" in capsys.readouterr().err

    def test_report_keeps_other_runs_manifest_entries(self, tmp_path):
        cache = tmp_path / "cache"
        assert run_main(
            ["table3_conflicts", "--preset", "quick", "--cache-dir", str(cache)]
        ) == 0
        manifest = cache / "manifest.json"
        first = {e["key"] for e in json.loads(manifest.read_text())["entries"]}
        assert first
        assert run_main(
            ["abl_aim_writeback", "--preset", "quick", "--cache-dir", str(cache),
             "--report", str(tmp_path / "r.md")]
        ) == 0
        merged = json.loads(manifest.read_text())
        assert merged["runs"] == 2
        assert first < {e["key"] for e in merged["entries"]}

    def test_unchecked_claims_fail_the_report(self):
        table = TextTable(
            "CE+ AIM write policy",
            ["policy", "cycles", "offchip metadata bytes", "AIM hit rate"],
        )
        table.add_row("write-back", "FAILED", "FAILED", "FAILED")
        table.add_row("write-through", 10, 5, 0.5)
        report = Report(QUICK)
        report.add("abl_aim_writeback", [table], 0.0)
        report.add("fig_perf_16", None, 0.0)
        report.add("captured_workloads", None, 0.0)
        assert (report.passed, len(report.checks)) == (0, 2)
        text = report.render()
        assert "not evaluable: the tables hold FAILED cells" in text
        assert "not evaluable: the experiment did not render" in text
        assert text.count("**PARTIAL**") == 2


class TestRunCli:
    def test_run_without_report_loads_no_claim_code(self):
        code = (
            "import sys\nfrom repro.harness.run import main\n"
            "main(['table1_system_config', '--preset', 'quick', '--no-cache'])\n"
            "print([m for m in sys.modules if m.endswith(('.shapes', '.report'))])"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=SRC_ENV, check=True)
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_list(self, capsys):
        assert run_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig_perf_16" in out
        assert "table3_conflicts" in out

    def test_no_args_lists(self, capsys):
        assert run_main([]) == 0
        assert "experiment id" in capsys.readouterr().out

    def test_run_one(self, capsys):
        assert run_main(["table1_system_config", "--preset", "quick"]) == 0
        out = capsys.readouterr().out
        assert "simulated system parameters" in out

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_main(["bogus", "--preset", "quick"])

    def test_threads_override(self, capsys):
        assert run_main(
            ["table1_system_config", "--preset", "quick", "--threads", "8"]
        ) == 0
        assert "8 in-order" in capsys.readouterr().out
