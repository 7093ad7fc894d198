"""Executable-documentation tests: the README's Python snippets run.

Extracts fenced ``python`` code blocks from README.md and executes them
in order, so the quickstart can never rot.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

#: where commands are written down for users, CI and maintainers
COMMAND_DOCS = [
    README,
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".github" / "workflows" / "ci.yml",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]

#: the per-tool console scripts ``repro <subcommand>`` replaced;
#: ``repro-service`` (a data directory) and ``repro-serve/<version>``
#: (the HTTP server banner) are not commands
RETIRED_SCRIPT = re.compile(
    r"repro-(run|report|inspect|conflicts|analyze|heatmap|wsprofile|"
    r"modelcheck|detlint|fsck|capture|staticlint|protover|serve|client)"
    r"(?![-/\w])"
)


def python_blocks() -> list[str]:
    text = README.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadmeSnippets:
    def test_readme_has_python_snippets(self):
        assert len(python_blocks()) >= 2

    @pytest.mark.parametrize("index", range(len(python_blocks())))
    def test_snippet_executes(self, index):
        code = python_blocks()[index]
        namespace: dict = {}
        exec(compile(code, f"README.md#python-{index}", "exec"), namespace)

    def test_quickstart_snippet_produces_comparison(self, capsys):
        code = python_blocks()[0]
        namespace: dict = {}
        exec(compile(code, "README.md#quickstart", "exec"), namespace)
        out = capsys.readouterr().out
        assert "ProtocolKind" in out or "1.0" in out  # printed the dicts

    def test_mentioned_commands_exist(self):
        """Every `python -m repro...` module the README mentions imports,
        every `repro <word>` the docs, CI and the verify notes mention is
        a subcommand, and none names a retired per-tool script."""
        import importlib

        from repro.cli import COMMANDS

        text = README.read_text()
        modules = set(re.findall(r"python -m (repro[\w.]*)", text))
        assert modules
        for module in modules:
            importlib.import_module(module)

        for path in COMMAND_DOCS:
            # Python code says `from repro import ...`; commands live
            # in shell blocks and prose
            doc = re.sub(r"```python\n.*?```", "", path.read_text(), flags=re.DOTALL)
            words = set(re.findall(r"(?<![\w./-])repro ([a-z][\w-]*)", doc))
            assert words <= set(COMMANDS), (path.name, words - set(COMMANDS))
            assert not RETIRED_SCRIPT.findall(doc), path.name

    def test_mentioned_dotted_names_resolve(self):
        """Every dotted ``repro.*`` name the docs, CI and the verify
        notes mention is a module or an attribute of one, so a module
        that moves cannot leave a stale path behind."""
        import importlib

        def resolves(name: str) -> bool:
            parts = name.split(".")
            for i in range(len(parts), 0, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:i]))
                except ImportError:
                    continue
                for attr in parts[i:]:
                    if not hasattr(obj, attr):
                        return False
                    obj = getattr(obj, attr)
                return True
            return False

        for path in COMMAND_DOCS:
            names = set(re.findall(r"(?<![\w.])repro(?:\.\w+)+", path.read_text()))
            stale = sorted(name for name in names if not resolves(name))
            assert not stale, (path.name, stale)
