"""Determinism lint tests: the AST checker and its CLI."""

import json
import textwrap
from pathlib import Path

from repro.tools.detlint import DEFAULT_PATHS, lint_paths, lint_source, main


def lint(snippet: str):
    return lint_source(textwrap.dedent(snippet), "<test>")


class TestSetIteration:
    def test_for_over_set_literal(self):
        findings = lint("""
            for x in {1, 2, 3}:
                print(x)
        """)
        assert [f.code for f in findings] == ["DET001"]

    def test_for_over_set_call(self):
        findings = lint("""
            pending = set()
            for x in pending:
                pass
        """)
        assert [f.code for f in findings] == ["DET001"]

    def test_comprehension_over_set_comp(self):
        findings = lint("""
            out = [x for x in {a for a in range(4)}]
        """)
        assert [f.code for f in findings] == ["DET001"]

    def test_self_attribute_assigned_a_set(self):
        findings = lint("""
            class P:
                def __init__(self):
                    self.dirty = set()
                def flush(self):
                    for line in self.dirty:
                        pass
        """)
        assert [f.code for f in findings] == ["DET001"]

    def test_annotated_set_attribute(self):
        findings = lint("""
            class P:
                def __init__(self):
                    self.log: set[int] = something()
                def clear(self):
                    for line in self.log:
                        pass
        """)
        assert [f.code for f in findings] == ["DET001"]

    def test_subscript_of_per_core_set_list(self):
        findings = lint("""
            class P:
                def __init__(self, n):
                    self.spill = [set() for _ in range(n)]
                def clear(self, core):
                    for line in self.spill[core]:
                        pass
        """)
        assert [f.code for f in findings] == ["DET001"]

    def test_sorted_wrap_is_clean(self):
        findings = lint("""
            pending = set()
            for x in sorted(pending):
                pass
        """)
        assert findings == []

    def test_local_names_are_scoped_to_their_function(self):
        """A list in one function is not a set because another function
        binds the same name to one (the ``held`` false positive)."""
        findings = lint("""
            def walk(locks):
                held: list[int] = []
                for outer in held:
                    pass

            def other():
                held: set[int] = set()
                return len(held)
        """)
        assert findings == []

    def test_set_iterated_in_its_own_function_is_flagged(self):
        findings = lint("""
            def walk(locks):
                held: list[int] = []
                return held

            def other():
                held: set[int] = set()
                for lock in held:
                    pass
        """)
        assert [(f.code, f.line) for f in findings] == [("DET001", 8)]

    def test_module_level_set_reaches_functions(self):
        findings = lint("""
            PENDING = set()

            def drain():
                for x in PENDING:
                    pass

            def shadowed():
                PENDING = []
                for x in PENDING:
                    pass
        """)
        assert [(f.code, f.line) for f in findings] == [("DET001", 5)]

    def test_dict_and_list_iteration_are_clean(self):
        findings = lint("""
            d = {}
            xs = [1, 2]
            for k in d:
                pass
            for x in xs:
                pass
        """)
        assert findings == []


class TestIdCalls:
    def test_id_call_flagged(self):
        findings = lint("""
            key = id(obj)
        """)
        assert [f.code for f in findings] == ["DET002"]

    def test_shadowed_id_still_flagged_conservatively(self):
        # the lint is syntactic by design; a local `id` shadow is rare
        # enough in this codebase that the pragma covers it
        findings = lint("""
            table[id(entry)] = entry
        """)
        assert [f.code for f in findings] == ["DET002"]


class TestPragma:
    def test_pragma_suppresses(self):
        findings = lint("""
            pending = set()
            for x in pending:  # detlint: ok
                pass
        """)
        assert findings == []

    def test_pragma_is_line_scoped(self):
        findings = lint("""
            pending = set()
            for x in pending:  # detlint: ok
                pass
            for y in pending:
                pass
        """)
        assert len(findings) == 1


class TestFilesystemIteration:
    def test_glob_flagged(self):
        findings = lint("""
            import glob
            for name in glob.glob("*.json"):
                pass
        """)
        assert [f.code for f in findings] == ["DET003"]

    def test_listdir_and_scandir_flagged(self):
        findings = lint("""
            import os
            names = os.listdir(".")
            entries = os.scandir(".")
        """)
        assert [f.code for f in findings] == ["DET003", "DET003"]

    def test_path_methods_flagged(self):
        findings = lint("""
            from pathlib import Path
            for p in Path(".").iterdir():
                pass
            files = root.rglob("*.py")
            more = root.glob("*.npz")
        """)
        assert [f.code for f in findings] == ["DET003"] * 3

    def test_sorted_wrap_blesses(self):
        findings = lint("""
            import glob, os
            from pathlib import Path
            for name in sorted(glob.glob("*.json")):
                pass
            names = sorted(os.listdir("."))
            files = sorted(Path(".").rglob("*.py"))
        """)
        assert findings == []

    def test_sorted_blesses_nested_calls(self):
        findings = lint("""
            xs = sorted(p.name for p in root.iterdir())
            ys = sorted(root.glob("*.py"), key=str)
        """)
        assert findings == []

    def test_pragma_suppresses_fs_finding(self):
        findings = lint("""
            import os
            names = os.listdir(".")  # detlint: ok
        """)
        assert findings == []


class TestRepoIsClean:
    def test_default_paths_have_no_findings(self):
        assert lint_paths(list(DEFAULT_PATHS)) == []

    def test_default_paths_cover_harness_and_tools(self):
        assert "src/repro/harness" in DEFAULT_PATHS
        assert "src/repro/tools" in DEFAULT_PATHS

    def test_every_package_is_lint_covered_or_exempt(self):
        """Adding a new src/repro package must be a conscious lint
        decision: either it joins DEFAULT_PATHS or the exemption list
        below (with a reason)."""
        # determinism is enforced elsewhere for these: pure data /
        # leaf-arithmetic modules with no iteration-driven schedules
        # (common, mem, noc, trace, energy) and the workload generators,
        # whose outputs the golden digests pin
        exempt = {"common", "energy", "mem", "noc", "synth", "trace"}
        covered = {Path(p).name for p in DEFAULT_PATHS}
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        packages = {
            child.name for child in src.iterdir()
            if child.is_dir() and (child / "__init__.py").exists()
        }
        assert packages == covered | exempt
        assert not covered & exempt


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert main([]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("for x in {1, 2}:\n    pass\n")
        assert main([str(bad)]) == 3
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "1 finding(s)" in out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("k = id(x)\n")
        assert main([str(bad), "--format", "json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["code"] == "DET002"
        assert payload[0]["line"] == 1


class TestBareWrites:
    """ROB004: tearable writes inside durable-artifact modules."""

    def lint_durable(self, snippet):
        return lint_source(
            textwrap.dedent(snippet), "src/repro/harness/x.py"
        )

    def test_open_write_mode_flagged(self):
        for mode in ("w", "wb", "a", "x", "r+"):
            findings = self.lint_durable(f"""
                with open(p, "{mode}") as fh:
                    fh.write(data)
            """)
            assert [f.code for f in findings] == ["ROB004"], mode

    def test_open_mode_keyword_flagged(self):
        findings = self.lint_durable("""
            fh = open(p, mode="w")
        """)
        assert [f.code for f in findings] == ["ROB004"]

    def test_write_text_and_bytes_flagged(self):
        findings = self.lint_durable("""
            p.write_text(body)
            p.write_bytes(blob)
        """)
        assert [f.code for f in findings] == ["ROB004", "ROB004"]

    def test_path_open_write_flagged(self):
        findings = self.lint_durable("""
            with p.open("ab") as fh:
                fh.write(frame)
        """)
        assert [f.code for f in findings] == ["ROB004"]

    def test_reads_are_clean(self):
        findings = self.lint_durable("""
            a = open(p).read()
            b = open(p, "rb").read()
            with p.open() as fh:
                c = fh.read()
            d = p.read_text()
        """)
        assert findings == []

    def test_out_of_scope_modules_are_clean(self):
        snippet = 'p.write_text(body)\n'
        assert lint_source(snippet, "src/repro/core/x.py") == []
        assert lint_source(snippet, "src/repro/harness/x.py") != []
        assert lint_source(snippet, "src/repro/tools/x.py") != []

    def test_pragma_suppresses(self):
        findings = self.lint_durable("""
            p.write_bytes(b"junk")  # detlint: ok - deliberate corruption
        """)
        assert findings == []
