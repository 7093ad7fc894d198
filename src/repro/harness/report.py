"""Markdown experiment report: ``repro run <exp|all> --report PATH``.

The run loop hands each experiment's tables to :class:`Report` as it
prints them; the report adds that experiment's Markdown section with
the claim verdicts from :mod:`repro.harness.shapes`.  This is how the
repository's EXPERIMENTS_RAW.md is produced.  ``repro run`` imports
this module only under ``--report``.
"""

from __future__ import annotations

from pathlib import Path

from ..common import durable
from .experiments import FAILED_CELL, REGISTRY, Settings
from .shapes import CHECKERS, ShapeCheck, run_checks
from .tables import TextTable


class Report:
    """One Markdown document built up an experiment at a time."""

    def __init__(self, settings: Settings) -> None:
        self.settings = settings
        self.sections: list[str] = []
        self.checks: list[ShapeCheck] = []

    @property
    def passed(self) -> int:
        return sum(check.passed for check in self.checks)

    def add(
        self, exp_id: str, tables: list[TextTable] | None, elapsed: float
    ) -> None:
        """Add one experiment's section; ``tables`` is None when the
        experiment could not render (``--keep-going``).  Claims that
        cannot be checked count as failed."""
        exp = REGISTRY[exp_id]
        lines = [f"## {exp_id} — {exp.paper_artifact}", ""]
        if tables is None:
            lines += ["**PARTIAL** — not rendered: failed simulation points.  "
                      f"*({elapsed:.1f}s)*", ""]
            unchecked = "the experiment did not render"
        else:
            lines += [f"{exp.description}  *({elapsed:.1f}s)*", ""]
            for table in tables:
                lines += ["```", table.render(), "```", ""]
            failed_cells = any(
                FAILED_CELL in row for table in tables for row in table.rows
            )
            unchecked = "the tables hold FAILED cells" if failed_cells else ""
        if unchecked and exp_id in CHECKERS:
            checks = [ShapeCheck(f"{exp_id}'s claims", False, None,
                                 f"not evaluable: {unchecked}")]
        else:
            checks = run_checks(exp_id, tables or [], self.settings)
        if checks:
            lines += ["Shape checks:", ""]
            for check in checks:
                status = "PASS" if check.passed else "FAIL"
                lines.append(f"* **{status}**: {check.claim} — {check.detail}")
            lines.append("")
        self.checks += checks
        self.sections.append("\n".join(lines))

    def render(self) -> str:
        s = self.settings
        head = [
            "# Experiment report",
            "",
            f"Settings: {s.num_threads} threads, seed {s.seed}, "
            f"scale {s.scale}, core counts {list(s.core_counts)}.",
            "",
            f"Shape checks passed: **{self.passed}/{len(self.checks)}**.",
            "",
        ]
        return "\n".join(head + self.sections)

    def write(self, path: str | Path) -> Path:
        return durable.atomic_replace_text(path, self.render(), site="report")
