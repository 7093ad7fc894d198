"""AST determinism lint for the simulation core.

Simulation outputs must be byte-identical across processes and hash
seeds.  Two patterns silently break that:

* **DET001 — iteration over a set** in a ``for`` loop or comprehension.
  Python set iteration order depends on insertion history and element
  hashes; when the loop body sends messages, evicts lines or mutates
  shared structures, the order leaks into latencies and schedules.
  Wrap the iterable in ``sorted(...)`` (or restructure around an
  insertion-ordered dict).

* **DET002 — ``id()`` keys**.  ``id()`` values differ across processes,
  so containers keyed (or ordered) by them are nondeterministic.

* **DET003 — unsorted filesystem iteration**.  ``glob.glob``,
  ``os.listdir``/``os.scandir`` and ``Path.iterdir``/``glob``/``rglob``
  return entries in OS-and-filesystem-dependent order; consuming them
  without ``sorted(...)`` makes sweep manifests, golden comparisons and
  aggregate reports depend on the machine.  A call anywhere inside a
  ``sorted(...)`` argument is blessed.

One robustness rule rides along, scoped to the modules that persist
durable artifacts (``harness/`` and ``tools/``):

* **ROB004 — bare write to a durable artifact**.  ``open(path, "w")``,
  ``Path.open("w")`` and ``Path.write_text``/``write_bytes`` leave a
  torn file if the process dies mid-write; caches, manifests, journals
  and reports must go through ``repro.common.durable`` —
  ``atomic_replace`` for replace-the-whole-file artifacts, a
  ``FramedJournal`` for appends.  Writes that are genuinely transient
  (test fixtures, deliberate corruption helpers) carry the pragma.

The checker is intentionally conservative: it flags only iterables it
can *prove* are sets — set literals/comprehensions, ``set()`` /
``frozenset()`` calls, names assigned or annotated as sets in the
function that reads them (or at module level, unless the function
rebinds the name), ``self`` attributes assigned or annotated as sets
anywhere in the module, and subscripts of attributes built as lists of
sets (the ``[set() for _ in range(n)]`` per-core idiom).  A trailing
``# detlint: ok`` comment suppresses a finding.

Usage::

    repro detlint                 # default: protocols + core
    repro detlint src/repro --format json
"""

from __future__ import annotations

import argparse
import ast
from dataclasses import dataclass
from pathlib import Path

from ..cli import EXIT_FINDINGS, add_format, emit

#: checked by default: the modules whose control flow decides schedules,
#: plus the harness and CLI tools whose file sweeps feed reports, plus
#: the analyzers and the model checker whose reports must be
#: reproducible
DEFAULT_PATHS = (
    "src/repro/protocols",
    "src/repro/core",
    "src/repro/capture",
    "src/repro/harness",
    "src/repro/tools",
    "src/repro/statics",
    "src/repro/service",
    "src/repro/analysis",
    "src/repro/modelcheck",
)

PRAGMA = "detlint: ok"


@dataclass(frozen=True)
class Finding:
    file: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "code": self.code,
            "message": self.message,
        }


def _is_set_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _is_set_display(node: ast.expr) -> bool:
    return isinstance(node, (ast.Set, ast.SetComp)) or _is_set_call(node)


def _is_list_of_sets(node: ast.expr) -> bool:
    if isinstance(node, ast.ListComp):
        return _is_set_display(node.elt)
    if isinstance(node, ast.List):
        return bool(node.elts) and all(_is_set_display(e) for e in node.elts)
    return False


def _annotation_kind(node: ast.expr | None) -> str | None:
    """Classify a type annotation: 'set', 'setlist' or None."""
    if node is None:
        return None
    text = ast.unparse(node).replace(" ", "")
    if text.startswith(("set[", "frozenset[", "Set[", "FrozenSet[")) or text in (
        "set", "frozenset"
    ):
        return "set"
    if text.startswith(("list[set[", "list[frozenset[", "List[Set[")):
        return "setlist"
    return None


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _Scoped(ast.NodeVisitor):
    """Tracks the enclosing functions (``None`` is the module scope)."""

    def __init__(self) -> None:
        self.stack: list[ast.AST | None] = [None]

    def visit_FunctionDef(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self.stack.append(node)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


class _SymbolCollector(_Scoped):
    """First pass: names / self-attributes provably bound to sets."""

    def __init__(self) -> None:
        super().__init__()
        #: scope -> name -> 'set' | 'setlist' | None (bound, not a set);
        #: a set binding anywhere in the scope wins
        self.names: dict[ast.AST | None, dict[str, str | None]] = {}
        #: self attribute -> 'set' | 'setlist', module-wide (a deliberate
        #: lint-grade approximation: any method may assign it)
        self.attrs: dict[str, str] = {}

    def _classify_value(self, value: ast.expr | None) -> str | None:
        if value is None:
            return None
        if _is_set_display(value):
            return "set"
        if _is_list_of_sets(value):
            return "setlist"
        return None

    def _bind(self, target: ast.expr, kind: str | None) -> None:
        if isinstance(target, ast.Name):
            scope = self.names.setdefault(self.stack[-1], {})
            scope[target.id] = kind or scope.get(target.id)
        attr = _self_attr(target)
        if attr is not None and kind is not None:
            self.attrs[attr] = kind

    def visit_Assign(self, node: ast.Assign) -> None:
        kind = self._classify_value(node.value)
        for target in node.targets:
            self._bind(target, kind)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        kind = _annotation_kind(node.annotation) or self._classify_value(
            node.value
        )
        self._bind(node.target, kind)
        self.generic_visit(node)


#: module-level filesystem enumerators with OS-dependent order
_FS_FUNCTIONS = {
    ("glob", "glob"),
    ("glob", "iglob"),
    ("os", "listdir"),
    ("os", "scandir"),
}

#: Path methods with OS-dependent order (checked on any receiver — a
#: lint-grade approximation; non-Path receivers with these names are
#: rare and a false positive is one pragma away)
_FS_METHODS = ("iterdir", "glob", "rglob")


def _fs_iteration(node: ast.Call) -> str | None:
    """The dotted name of an order-unstable filesystem call, or None."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    if (
        isinstance(func.value, ast.Name)
        and (func.value.id, func.attr) in _FS_FUNCTIONS
    ):
        return f"{func.value.id}.{func.attr}"
    if func.attr in _FS_METHODS:
        return f".{func.attr}()"
    return None


#: file-path parts that mark a module as writing durable artifacts —
#: the ROB004 scope (the simulation core writes nothing durable)
_DURABLE_SCOPES = ("harness", "tools", "service")

#: write-capable file modes (any mode that can truncate or extend)
def _is_write_mode(node: ast.expr | None) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and any(c in node.value for c in "wa+x")
    )


def _bare_write(node: ast.Call) -> str | None:
    """The spelling of a tearable file write, or None."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = node.args[1] if len(node.args) > 1 else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), None
        )
        if _is_write_mode(mode):
            return f'open(..., "{mode.value}")'
        return None
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in ("write_text", "write_bytes"):
        return f".{func.attr}()"
    if func.attr == "open":
        mode = node.args[0] if node.args else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), None
        )
        if _is_write_mode(mode):
            return f'.open("{mode.value}")'
    return None


class _IterationChecker(_Scoped):
    """Second pass: flag set iteration, id() calls and unsorted fs walks."""

    def __init__(self, filename: str, symbols: _SymbolCollector):
        super().__init__()
        self.filename = filename
        self.symbols = symbols
        self.findings: list[Finding] = []
        self.durable_scope = any(
            part in _DURABLE_SCOPES for part in Path(filename).parts
        )

    def _kind_of(self, node: ast.expr) -> str | None:
        if _is_set_display(node):
            return "set"
        if isinstance(node, ast.Name):
            # the innermost enclosing scope that binds the name decides
            for scope in reversed(self.stack):
                names = self.symbols.names.get(scope, {})
                if node.id in names:
                    return names[node.id]
            return None
        attr = _self_attr(node)
        if attr is not None:
            return self.symbols.attrs.get(attr)
        if isinstance(node, ast.Subscript):
            outer = self._kind_of(node.value)
            if outer == "setlist":
                return "set"
        return None

    def _check_iter(self, node: ast.expr) -> None:
        if self._kind_of(node) == "set":
            self.findings.append(Finding(
                self.filename,
                node.lineno,
                "DET001",
                f"iteration over a set ({ast.unparse(node)}): order is "
                "nondeterministic — wrap in sorted(...)",
            ))

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for generator in node.generators:
            self._check_iter(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "id":
            self.findings.append(Finding(
                self.filename,
                node.lineno,
                "DET002",
                "id() is process-dependent; identity-keyed containers are "
                "nondeterministic — key by a stable field instead",
            ))
        if isinstance(node.func, ast.Name) and node.func.id == "sorted":
            # bless every fs call anywhere inside sorted's arguments
            for arg in node.args + [kw.value for kw in node.keywords]:
                for child in ast.walk(arg):
                    child._det_sorted = True  # type: ignore[attr-defined]
        name = _fs_iteration(node)
        if name is not None and not getattr(node, "_det_sorted", False):
            self.findings.append(Finding(
                self.filename,
                node.lineno,
                "DET003",
                f"unsorted filesystem iteration ({name}): directory order "
                "is OS-dependent — wrap in sorted(...)",
            ))
        if self.durable_scope:
            spelling = _bare_write(node)
            if spelling is not None:
                self.findings.append(Finding(
                    self.filename,
                    node.lineno,
                    "ROB004",
                    f"bare file write ({spelling}) in a durable-artifact "
                    "module: a crash mid-write tears it — use "
                    "repro.common.durable.atomic_replace or a FramedJournal",
                ))
        self.generic_visit(node)


def lint_source(source: str, filename: str) -> list[Finding]:
    """Lint one module's source text."""
    tree = ast.parse(source, filename=filename)
    collector = _SymbolCollector()
    collector.visit(tree)
    checker = _IterationChecker(filename, collector)
    checker.visit(tree)
    source_lines = source.splitlines()
    kept = []
    for finding in checker.findings:
        line = source_lines[finding.line - 1] if finding.line <= len(
            source_lines
        ) else ""
        if PRAGMA not in line:
            kept.append(finding)
    return sorted(kept, key=lambda f: (f.file, f.line, f.code))


def lint_paths(paths: list[str]) -> list[Finding]:
    """Lint every ``*.py`` file under the given files/directories."""
    findings: list[Finding] = []
    for path in paths:
        root = Path(path)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            findings.extend(lint_source(file.read_text(), str(file)))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro detlint",
        description="Determinism lint: set iteration / id() in the "
        "simulation core.",
    )
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    add_format(parser)
    args = parser.parse_args(argv)

    findings = lint_paths(args.paths)
    lines = [finding.render() for finding in findings]
    lines.append(f"{len(findings)} finding(s)")
    emit(args.format, [f.to_dict() for f in findings], "\n".join(lines))
    return EXIT_FINDINGS if findings else 0
