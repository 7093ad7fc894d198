"""Tests for the ``repro`` command line and its viewer subcommands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMMANDS, load_target, main as repro_main
from repro.common.errors import ConfigError
from repro.tools.view import (
    characteristics_table,
    dump_main,
    inspect_main,
    per_thread_table,
    region_histogram,
)
from repro.synth import build_workload
from repro.trace.io import save_program

#: subprocesses import the package from this checkout
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))


class TestLoadTarget:
    def test_by_name(self):
        program = load_target("lock-counter", 4, 1, 0.05)
        assert program.name == "lock-counter"
        assert program.num_threads == 4

    def test_from_rtb(self, tmp_path):
        original = build_workload("false-sharing", num_threads=4, seed=1, scale=0.05)
        path = tmp_path / "wl.rtb"
        save_program(original, path)
        loaded = load_target(str(path), 99, 99, 99.0)  # params ignored for files
        assert loaded.num_threads == 4
        assert loaded.name == "false-sharing"


class TestTables:
    @pytest.fixture(scope="class")
    def program(self):
        return build_workload("pipeline-ferret", num_threads=4, seed=1, scale=0.05)

    def test_characteristics(self, program):
        table = characteristics_table(program)
        rows = table.row_dict("characteristic")
        assert rows["threads"]["value"] == 4
        assert rows["accesses"]["value"] > 0

    def test_histogram_shares_sum_to_one(self, program):
        table = region_histogram(program)
        assert table.rows
        assert sum(table.column("share")) == pytest.approx(1.0)

    def test_histogram_empty_program(self):
        from repro.trace import Program, TraceBuilder

        table = region_histogram(Program([TraceBuilder().build()]))
        assert table.rows == []

    def test_per_thread(self, program):
        table = per_thread_table(program)
        assert len(table.rows) == 4
        assert table.column("thread") == [0, 1, 2, 3]


class TestCli:
    def test_inspect_list(self, capsys):
        assert inspect_main(["--list"]) == 0
        assert "lock-counter" in capsys.readouterr().out

    def test_inspect_workload(self, capsys):
        assert inspect_main(["lock-counter", "--threads", "4", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Workload: lock-counter" in out
        assert "Region length histogram" in out

    def test_dump_window(self, capsys):
        assert dump_main(
            ["lock-counter", "--threads", "4", "--scale", "0.05", "--limit", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "thread 0" in out
        assert "acquire" in out

    def test_dump_bad_thread(self):
        with pytest.raises(SystemExit):
            dump_main(["lock-counter", "--threads", "4", "--thread", "9"])


class TestConflictsCli:
    def test_racy_workload_reports(self, capsys):
        from repro.tools.view import conflicts_main as main

        rc = main(["racy-writers", "--protocol", "arc", "--threads", "4",
                   "--scale", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "racy-writers under arc" in out
        assert "conflict exception(s)" in out

    def test_clean_workload_quiet(self, capsys):
        from repro.tools.view import conflicts_main as main

        rc = main(["lock-counter", "--protocol", "ce", "--threads", "4",
                   "--scale", "0.05"])
        assert rc == 0
        assert "0 region" in capsys.readouterr().out

    def test_bad_protocol_rejected(self):
        from repro.tools.view import conflicts_main as main

        with pytest.raises(SystemExit):
            main(["lock-counter", "--protocol", "nonsense"])


class TestAnalyzeCli:
    def test_clean_workload_text(self, capsys):
        from repro.tools.analyze import main

        rc = main(["stencil-ocean", "--threads", "4", "--scale", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "races: none" in out
        assert "lint: clean" in out

    def test_racy_workload_text(self, capsys):
        from repro.tools.analyze import main

        rc = main(["racy-writers", "--threads", "4", "--scale", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted region conflict" in out
        assert "ww on" in out

    def test_json_schema(self, capsys):
        import json

        from repro.tools.analyze import main

        rc = main(["racy-readers", "--threads", "4", "--scale", "0.05",
                   "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"target", "threads", "line_size", "races", "lint"}
        assert report["target"] == "racy-readers"
        assert report["threads"] == 4
        assert report["races"]["count"] == len(report["races"]["region_conflicts"])
        assert report["races"]["count"] > 0
        conflict = report["races"]["region_conflicts"][0]
        assert set(conflict) == {
            "line", "first_core", "first_region",
            "second_core", "second_region", "byte_mask", "kind",
        }
        assert conflict["kind"] in ("ww", "rw", "wr")
        assert report["lint"]["max_severity"] in (None, "info", "warning", "error")

    def test_fail_on_race_gates(self, capsys):
        from repro.tools.analyze import main

        assert main(["racy-writers", "--threads", "2", "--scale", "0.05",
                     "--fail-on", "race"]) == 3
        capsys.readouterr()
        assert main(["stencil-ocean", "--threads", "2", "--scale", "0.05",
                     "--fail-on", "race"]) == 0

    def test_no_flags_skip_sections(self, capsys):
        import json

        from repro.tools.analyze import main

        rc = main(["lock-counter", "--threads", "2", "--scale", "0.05",
                   "--no-races", "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert "races" not in report
        assert "lint" in report

    def test_bad_format_rejected(self):
        from repro.tools.analyze import main

        with pytest.raises(SystemExit):
            main(["lock-counter", "--format", "yaml"])


class TestParseParams:
    from repro.cli import parse_params

    def test_coercion(self):
        from repro.cli import parse_params

        params = parse_params(["rounds=5", "scaleish=0.5", "flag=true", "name=abc"])
        assert params == {"rounds": 5, "scaleish": 0.5, "flag": True, "name": "abc"}

    def test_none_is_empty(self):
        from repro.cli import parse_params

        assert parse_params(None) == {}

    def test_bad_item_rejected(self):
        from repro.cli import parse_params

        with pytest.raises(ConfigError, match="key=value"):
            parse_params(["oops"])


class TestHeatmap:
    def test_render_marks_hotspot(self):
        import numpy as np

        from repro.noc.topology import MeshTopology
        from repro.tools.view import render_heatmap

        topo = MeshTopology(2, 2)
        flits = np.zeros(topo.num_links)
        # load only the 0<->1 links
        flits[topo.route(0, 1)[0]] = 100
        flits[topo.route(1, 0)[0]] = 100
        art = render_heatmap(topo, flits)
        assert "@@@" in art           # hot horizontal link
        assert "[ 0]" in art and "[ 3]" in art
        assert "shade ramp" in art

    def test_cli_runs(self, capsys):
        from repro.tools.view import heatmap_main as main

        rc = main(
            ["lock-counter", "--protocol", "arc", "--threads", "4",
             "--scale", "0.05"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "flit-hops" in out
        assert "[ 0]" in out

    def test_cli_with_params(self, capsys):
        from repro.tools.view import heatmap_main as main

        rc = main(
            ["false-sharing", "--protocol", "mesi", "--threads", "4",
             "--scale", "0.05", "--param", "bank_concentrate=true"]
        )
        assert rc == 0
        assert "mesh" in capsys.readouterr().out


class TestWsProfile:
    def test_miss_rate_monotone_in_size(self):
        from repro.tools.view import miss_rate

        program = build_workload(
            "dataparallel-blackscholes", num_threads=4, seed=1, scale=0.2
        )
        rates = [miss_rate(program, kb) for kb in (4, 32, 256)]
        assert rates[0] >= rates[1] >= rates[2]
        assert 0.0 < rates[0] <= 1.0

    def test_profile_table(self):
        from repro.tools.view import profile_table

        program = build_workload("lock-counter", num_threads=2, seed=1, scale=0.05)
        table = profile_table(program, sizes_kb=(4, 64))
        assert table.column("cache size") == ["4KB", "64KB"]
        assert all(0 <= r <= 1 for r in table.column("miss rate"))

    def test_cli(self, capsys):
        from repro.tools.view import wsprofile_main as main

        rc = main(
            ["migratory-token", "--threads", "2", "--scale", "0.05",
             "--sizes", "8,64"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Working-set profile" in out
        assert "8KB" in out


class TestCommandSurface:
    """The ``repro`` dispatcher, driven in-process through its ``main``."""

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_help_names_the_subcommand(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            repro_main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {name}")

    def test_unknown_subcommand_exits_2(self, capsys):
        assert repro_main(["no-such-subcommand"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err

    def test_analyze_rtb_trace_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "smoke.rtb"
        save_program(
            build_workload("racy-writers", num_threads=4, seed=1, scale=0.05), path
        )
        assert repro_main(["analyze", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["target"] == "racy-writers"
        assert report["races"]["count"] > 0

    @pytest.mark.parametrize("argv", [
        ["conflicts", "racy-writers", "--protocol", "arc"],
        ["heatmap", "lock-counter", "--protocol", "ce"],
        ["analyze", "racy-writers"],
        ["capture", "replay", "capture-histogram", "--protocol", "ce"],
    ], ids=lambda argv: argv[0])
    def test_non_power_of_two_threads(self, argv, capsys):
        assert repro_main(argv + ["--threads", "6", "--scale", "0.05"]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "no-such-workload"], "unknown workload 'no-such-workload'"),
        (["inspect", "lock-counter", "--param", "oops"], "bad --param 'oops'"),
        (["dump", __file__], "not a repro trace"),
        (["capture", "capture", "no-such", "-o", "never-written.rtb"],
         "unknown capture workload 'no-such'"),
        (["capture", "capture", "capture-histogram", "-o", "trace.npz"],
         "output 'trace.npz' must end in .rtb"),
        (["fsck", __file__], "not a directory, .rjl journal"),
    ], ids=["unknown-workload", "malformed-param", "not-a-trace",
            "capture-unknown-workload", "capture-not-rtb",
            "fsck-unknown-path-type"])
    def test_bad_input_is_one_line_exit_2(self, argv, message, capsys):
        assert repro_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: ")
        assert message in err
        assert err.count("\n") == 1

    def test_python_dash_m_repro(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "inspect", "--list"],
            capture_output=True, text=True, env=SRC_ENV, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert "lock-counter" in proc.stdout.splitlines()

    def test_experiment_runner_imports_no_tool_layer(self, tmp_path):
        """``repro run`` start-up must not pay for the dispatcher, the
        analyzers, the verifiers, the service, the capture runtime, the
        process pool, fault injection or the multi-seed and sweep
        helpers, and a run whose points all hit the cache must not load
        NumPy or the simulation stack either."""
        heavy = (
            "repro.cli", "repro.tools", "repro.statics",
            "repro.modelcheck", "repro.service", "repro.capture", "numpy",
            "repro.core.batch", "repro.core.simulator", "repro.protocols",
            "repro.trace.builder", "repro.synth.patterns",
            "concurrent.futures", "multiprocessing",
            "repro.harness.faultinject", "repro.harness.multiseed",
            "repro.harness.sweep",
        )
        report = (
            "import sys\n"
            "print(sorted(m for m in sys.modules for h in "
            f"{heavy!r} if m == h or m.startswith(h + '.')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.harness.run\n" + report],
            capture_output=True, text=True, env=SRC_ENV, check=True,
        )
        assert proc.stdout.strip() == "[]"

        argv = ["all", "--preset", "quick", "--cache-dir", str(tmp_path)]
        subprocess.run(
            [sys.executable, "-m", "repro.harness.run", *argv],
            capture_output=True, env=SRC_ENV, check=True,
        )
        warm = subprocess.run(
            [sys.executable, "-c",
             f"from repro.harness.run import main\nmain({argv!r})\n" + report],
            capture_output=True, text=True, env=SRC_ENV, check=True,
        )
        assert " misses=0 " in warm.stderr
        assert warm.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize("module, allowed", [
        ("repro.analysis", ()),
        ("repro.tools.analyze", ()),
        # the model checker drives the real protocol classes
        ("repro.modelcheck", ("repro.protocols",)),
    ])
    def test_analyzers_imports_no_engine(self, module, allowed):
        """The analyzers key their conflicts with the oracle
        (``repro.core.oracle``), which imports nothing from the engine:
        importing them must not load the simulator, the batch engine,
        the protocols or the harness."""
        heavy = tuple(
            h for h in (
                "repro.core.batch", "repro.core.simulator",
                "repro.protocols", "repro.harness",
            ) if h not in allowed
        )
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}\n"
             "print(sorted(m for m in sys.modules for h in "
             f"{heavy!r} if m == h or m.startswith(h + '.')))"],
            capture_output=True, text=True, env=SRC_ENV, check=True,
        )
        assert proc.stdout.strip() == "[]"
