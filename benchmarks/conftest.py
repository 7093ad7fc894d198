"""Shared infrastructure for the benchmark harness.

``bench_paper.py`` regenerates the paper's tables and figures and checks
their claims; each other ``bench_*.py`` module measures one subsystem,
several against a budget committed in ``BENCH_<stem>.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def record_bench(stem: str, payload: dict) -> Path:
    """Append/update the committed ``BENCH_<stem>.json`` snapshot.

    Top-level keys in ``payload`` replace their counterparts; keys the
    payload doesn't mention (e.g. a committed ``floor``) are preserved,
    so a measurement refresh never silently weakens a gate.  Output is
    sorted and newline-terminated to keep the committed diff minimal.
    Only each module's standalone ``main()`` calls this; the pytest
    entries assert the budgets and write nothing, so a test run never
    dirties the committed snapshots.
    """
    path = REPO_ROOT / f"BENCH_{stem}.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update(payload)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def committed_floor(stem: str, default: float) -> float:
    """The perf floor recorded in ``BENCH_<stem>.json`` (``default``
    when the snapshot doesn't exist yet or records no floor)."""
    path = REPO_ROOT / f"BENCH_{stem}.json"
    if path.exists():
        return float(json.loads(path.read_text()).get("floor", default))
    return default
