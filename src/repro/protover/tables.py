"""Transition-table rendering for ``docs/PROTOCOLS.md``.

The inductive sweep's raw relation is one row per ``(state, event,
guard signature)`` — thousands of rows, unreadable.  The committed
artifact aggregates to the level a reviewer actually checks: for each
*acting-core line class* (I/S/O/E/M, or ARC's I/P/Sh with dirty and
pending-delta markers, ``~`` prefixing a stale region tag) and each
event shape, the set of next classes, the union of coherence actions,
and how many guard-distinct transition variants were proven under the
row.  The section lives between ``protover:begin``/``protover:end``
markers so the hand-written walkthroughs above it stay authoritative
prose; ``repro protover --write-docs`` regenerates it and CI fails on
drift (``--check-docs``).
"""

from __future__ import annotations

from pathlib import Path

from .induct import SweepResult

BEGIN = "<!-- protover:begin (generated by repro protover --write-docs) -->"
END = "<!-- protover:end -->"

#: display order for pre-state classes
_CLASS_ORDER = {
    name: index
    for index, name in enumerate((
        "I", "S", "O", "E", "M", "~S", "~O", "~E", "~M",
        "P", "P+d", "~P", "Sh", "Sh+d", "Sh+Δ", "Sh+d+Δ", "~Sh",
    ))
}
#: display order for event shapes
_EVENT_ORDER = ("R@0", "R@8", "W@0", "W@8", "REL", "ACQ", "BARRIER",
                "EVICT", "FINALIZE")


def _normalize_event(label: str) -> str:
    """Merge per-core event labels (behavior is acting-core relative)."""
    return label.split(" ", 1)[1] if label.startswith("core") else label


def render_tables(results: list[SweepResult]) -> str:
    lines = [
        BEGIN,
        "",
        "## Verified transition tables",
        "",
        "Generated by `repro protover --write-docs` from the guarded "
        "transition relation the symbolic verifier extracts out of "
        "`src/repro/protocols/` and proves inductively (all nine "
        "invariants re-checked after every transition; guards shown "
        "aggregated per acting-core line class).  `~` marks a stale "
        "region tag, `+d` dirty, `+Δ` an unregistered ARC delta; "
        "*variants* counts guard-distinct transitions proven under "
        "the row.",
        "",
    ]
    for result in results:
        lines.append(
            f"### `{result.protocol}` — {result.states} states × "
            f"{len(events_of(result))} events, {result.steps} "
            f"transitions, {result.sites} guard sites"
        )
        lines.append("")
        lines.append("| pre | event | post | actions | variants |")
        lines.append("|---|---|---|---|---|")
        merged: dict[tuple[str, str], tuple[set, set, set]] = {}
        for (pre, event_label), cell in result.table.items():
            key = (pre, _normalize_event(event_label))
            posts, actions, variants = merged.setdefault(
                key, (set(), set(), set())
            )
            posts.update(cell.post_classes)
            actions.update(cell.actions)
            variants.update(cell.variants)
        for (pre, event), (posts, actions, variants) in sorted(
            merged.items(),
            key=lambda item: (
                _CLASS_ORDER.get(item[0][0], 99), item[0][0],
                _event_rank(item[0][1]),
            ),
        ):
            post_text = ", ".join(sorted(posts))
            action_text = ", ".join(sorted(actions)) or "—"
            lines.append(
                f"| {pre} | {event} | {post_text} | {action_text} | "
                f"{len(variants)} |"
            )
        lines.append("")
    lines.append(END)
    return "\n".join(lines)


def events_of(result: SweepResult) -> set[str]:
    return {_normalize_event(event) for _pre, event in result.table}


def _event_rank(label: str) -> int:
    try:
        return _EVENT_ORDER.index(label)
    except ValueError:
        return len(_EVENT_ORDER)


def docs_path() -> Path:
    return Path(__file__).resolve().parents[3] / "docs" / "PROTOCOLS.md"


def splice(document: str, generated: str) -> str:
    """Replace the marked section (or append one) with ``generated``."""
    begin = document.find(BEGIN)
    end = document.find(END)
    if begin != -1 and end != -1:
        return document[:begin] + generated + document[end + len(END):]
    if not document.endswith("\n"):
        document += "\n"
    return document + "\n" + generated + "\n"


def docs_current(document: str, generated: str) -> bool:
    """True when the committed section matches the freshly generated
    one exactly (the CI drift check)."""
    return splice(document, generated) == document
