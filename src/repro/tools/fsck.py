"""``repro fsck``: verify and repair the harness's durable artifacts.

The persistence layer (:mod:`repro.common.durable`) guarantees that a
crash leaves every artifact *old-or-new, never garbage* — but "old"
can still mean a torn checkpoint tail awaiting truncation, a stale
``.tmp-*`` file awaiting GC, or a footerless ``.rtb`` awaiting salvage.
This tool is the offline recovery path for all of them:

* **cache directories** — verifies every ``.pkl`` entry's checksum
  line, finds stale ``.tmp-*`` residue, and checks ``manifest.json``
  parses; repair deletes corrupt entries (they are content-addressed
  and recomputable) and GCs the residue.
* **checkpoint journals** (``*.rjl``) — scans the CRC+length frames;
  repair truncates the torn tail (:meth:`FramedJournal.repair`).
* **traces** (``*.rtb``) — tolerant chunk scan
  (:func:`repro.trace.binio.scan_rtb`); repair rewrites the valid
  chunk prefix as a consistent, footer-terminated trace
  (:func:`~repro.trace.binio.salvage_rtb`).
* **service data directories** — a ``repro serve`` data dir (detected
  by its ``queue.sqlite``) checks all three stores at once: the queue
  DB for ``RUNNING`` jobs whose lease-holding worker died (repair
  re-queues them — or parks attempt-exhausted ones as ``TIMEOUT`` —
  via the queue's own :meth:`~repro.service.queue.JobQueue.expire_leases`
  transition), the trace store for stale upload ``.tmp-*`` residue and
  torn ``.rtb`` files, and the result cache as any cache directory.

Usage::

    repro fsck PATH [PATH ...]          # check only (side-effect-free)
    repro fsck --repair PATH [...]      # fix what can be fixed
    repro fsck --tmp-age 0 CACHE_DIR    # treat all tmp residue as stale

Paths may be ``.rtb`` / ``.rjl`` files or directories (scanned
recursively for both, plus cache shards).  Exit status: 0 when every
artifact is clean (or every finding was repaired), 4 when findings
remain.  ``--check`` (the default) never modifies anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..cli import EXIT_BROKEN, add_format, emit
from ..common import durable
from ..common.errors import ConfigError, TraceError

#: default stale-tmp age gate (seconds); mirrors the cache startup GC
DEFAULT_TMP_AGE = 3600.0


@dataclass
class Finding:
    """One verifiable defect in a durable artifact."""

    path: str
    kind: str  # torn-journal | torn-trace | corrupt-entry | stale-tmp
    #          # | bad-manifest | stale-lease | bad-queue-db
    detail: str
    repairable: bool = True
    repaired: bool = False
    repair_note: str = ""

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "kind": self.kind,
            "detail": self.detail,
            "repairable": self.repairable,
            "repaired": self.repaired,
            "repair_note": self.repair_note,
        }


@dataclass
class FsckReport:
    """Everything one fsck invocation examined and found."""

    checked: int = 0
    findings: list[Finding] = field(default_factory=list)

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    @property
    def unrepaired(self) -> list[Finding]:
        return [f for f in self.findings if not f.repaired]

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "findings": [f.to_dict() for f in self.findings],
            "clean": not self.findings,
            "repaired": sum(f.repaired for f in self.findings),
        }


# --------------------------------------------------------------------------
# per-artifact checks
# --------------------------------------------------------------------------


def check_journal(path: Path, report: FsckReport, repair: bool) -> None:
    """A framed journal (checkpoint): scan frames, truncate torn tails."""
    report.checked += 1
    journal = durable.FramedJournal(path)
    scanned = journal.scan()
    if not scanned.torn_bytes:
        return
    finding = Finding(
        path=str(path),
        kind="torn-journal",
        detail=(
            f"{scanned.torn_bytes} torn byte(s) after "
            f"{len(scanned.payloads)} valid frame(s)"
        ),
    )
    if repair:
        dropped = journal.repair()
        finding.repaired = True
        finding.repair_note = f"truncated {dropped} byte(s)"
    report.add(finding)


def check_trace(path: Path, report: FsckReport, repair: bool) -> None:
    """An ``.rtb`` trace: tolerant scan, salvage the valid chunk prefix."""
    from ..trace.binio import salvage_rtb, scan_rtb

    report.checked += 1
    try:
        scanned = scan_rtb(path)
    except (TraceError, OSError) as exc:
        # header damage: no trustworthy prefix, nothing to salvage
        report.add(Finding(
            path=str(path), kind="torn-trace",
            detail=f"unsalvageable: {exc}", repairable=False,
        ))
        return
    if scanned.ok:
        return
    finding = Finding(
        path=str(path),
        kind="torn-trace",
        detail=(
            f"{scanned.reason}; valid prefix holds {scanned.events} "
            f"event(s) in {scanned.chunks} chunk(s), "
            f"{scanned.torn_bytes} byte(s) torn"
        ),
    )
    if repair:
        salvage_rtb(path)
        finding.repaired = True
        finding.repair_note = (
            f"rewrote {scanned.events} event(s), dropped "
            f"{scanned.torn_bytes} byte(s)"
        )
    report.add(finding)


def _verify_cache_entry(path: Path) -> str | None:
    """Why a cache ``.pkl`` entry is corrupt, or None when it verifies.

    Only the checksum line is validated — unpickling arbitrary files is
    neither necessary (the checksum covers the payload bytes) nor safe
    for an offline tool pointed at untrusted directories.
    """
    try:
        blob = path.read_bytes()
    except OSError as exc:
        return f"unreadable: {exc}"
    parts = blob.split(b"\n", 1)
    if len(parts) != 2:
        return "no checksum line"
    checksum, payload = parts
    if hashlib.sha256(payload).hexdigest().encode("ascii") != checksum:
        return "checksum mismatch"
    return None


def check_cache_dir(
    root: Path, report: FsckReport, repair: bool, tmp_age: float
) -> None:
    """A result-cache directory: entries, manifest, tmp residue, journal."""
    for entry in sorted(root.glob("*/*.pkl")):
        report.checked += 1
        why = _verify_cache_entry(entry)
        if why is None:
            continue
        finding = Finding(
            path=str(entry), kind="corrupt-entry", detail=why,
        )
        if repair:
            # content-addressed and recomputable: deletion is the repair
            entry.unlink(missing_ok=True)
            finding.repaired = True
            finding.repair_note = "deleted (next run recomputes it)"
        report.add(finding)

    for tmp in durable.collect_stale_tmps(root, tmp_age):
        report.checked += 1
        finding = Finding(
            path=str(tmp), kind="stale-tmp",
            detail="orphaned atomic-replace temp file",
        )
        if repair:
            tmp.unlink(missing_ok=True)
            finding.repaired = True
            finding.repair_note = "deleted"
        report.add(finding)

    manifest = root / "manifest.json"
    if manifest.is_file():
        report.checked += 1
        try:
            json.loads(manifest.read_text())
        except (OSError, ValueError) as exc:
            # atomic replace makes this near-impossible; flag, don't guess
            report.add(Finding(
                path=str(manifest), kind="bad-manifest",
                detail=f"does not parse: {exc}", repairable=False,
            ))

    for journal in sorted(root.rglob("*.rjl")):
        check_journal(journal, report, repair)
    for trace in sorted(root.rglob("*.rtb")):
        check_trace(trace, report, repair)


def check_queue_db(path: Path, report: FsckReport, repair: bool) -> None:
    """A service job-queue DB: find leases whose worker died.

    A ``RUNNING`` job with an expired ``deadline`` means the claiming
    worker stopped heartbeating — it was SIGKILLed, wedged, or its
    whole host went down.  The job is *not lost* (that is the queue's
    old-or-new guarantee); it is merely orphaned until something runs
    the expiry transition.  A live server does that on every claim;
    this check is the offline path for a downed service's DB.
    """
    import sqlite3
    import time

    from ..service.models import JobState
    from ..service.queue import JobQueue

    report.checked += 1
    try:
        queue = JobQueue(path)
    except Exception as exc:  # noqa: B902 - sqlite/schema damage surfaces here
        report.add(Finding(
            path=str(path), kind="bad-queue-db",
            detail=f"cannot open as a job queue: {exc}", repairable=False,
        ))
        return
    with queue:
        now = time.time()
        stale = [
            record for record in queue.list_jobs(JobState.RUNNING, limit=10_000)
            if record.deadline is not None and record.deadline < now
        ]
        repaired_states: dict[str, str] = {}
        if repair and stale:
            try:
                repaired_states = {
                    job_id: state.value
                    for job_id, state in queue.expire_leases()
                }
            except sqlite3.OperationalError as exc:
                report.add(Finding(
                    path=str(path), kind="bad-queue-db",
                    detail=f"cannot repair (DB locked?): {exc}",
                    repairable=False,
                ))
                repair = False
        for record in stale:
            finding = Finding(
                path=str(path),
                kind="stale-lease",
                detail=(
                    f"job {record.id[:12]} RUNNING for {record.owner!r} "
                    f"but its lease expired "
                    f"{now - record.deadline:.0f}s ago "
                    f"(attempt {record.attempts}/{record.max_attempts})"
                ),
            )
            if repair:
                finding.repaired = True
                finding.repair_note = (
                    f"re-queued as {repaired_states.get(record.id, 'PENDING')}"
                )
            report.add(finding)


def check_service_dir(
    root: Path, report: FsckReport, repair: bool, tmp_age: float
) -> None:
    """A ``repro serve`` data dir: queue DB + trace store + result cache."""
    check_queue_db(root / "queue.sqlite", report, repair)
    traces = root / "traces"
    if traces.is_dir():
        for tmp in durable.collect_stale_tmps(traces, tmp_age):
            report.checked += 1
            finding = Finding(
                path=str(tmp), kind="stale-tmp",
                detail="orphaned trace-upload temp file",
            )
            if repair:
                tmp.unlink(missing_ok=True)
                finding.repaired = True
                finding.repair_note = "deleted"
            report.add(finding)
        for trace in sorted(traces.rglob("*.rtb")):
            check_trace(trace, report, repair)
    cache = root / "cache"
    if cache.is_dir():
        check_cache_dir(cache, report, repair, tmp_age)


def _looks_like_service_dir(path: Path) -> bool:
    return (path / "queue.sqlite").is_file()


def _looks_like_cache_dir(path: Path) -> bool:
    return (
        (path / "manifest.json").is_file()
        or any(path.glob("*.rjl"))  # detlint: ok - order-free existence probe
        or any(path.glob("*/*.pkl"))  # detlint: ok - order-free existence probe
    )


def fsck_paths(
    paths: list[Path], *, repair: bool, tmp_age: float
) -> FsckReport:
    """Check (and optionally repair) every artifact under ``paths``."""
    report = FsckReport()
    for path in paths:
        if path.is_dir():
            if _looks_like_service_dir(path):
                check_service_dir(path, report, repair, tmp_age)
            elif _looks_like_cache_dir(path):
                check_cache_dir(path, report, repair, tmp_age)
            else:
                for journal in sorted(path.rglob("*.rjl")):
                    check_journal(journal, report, repair)
                for trace in sorted(path.rglob("*.rtb")):
                    check_trace(trace, report, repair)
        elif path.suffix == ".rjl":
            check_journal(path, report, repair)
        elif path.suffix == ".rtb":
            check_trace(path, report, repair)
        elif path.suffix == ".sqlite":
            check_queue_db(path, report, repair)
        else:
            raise ConfigError(
                f"{path}: not a directory, .rjl journal, .rtb trace or "
                ".sqlite queue DB"
            )
    return report


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro fsck",
        description=(
            "Verify (and with --repair, fix) the harness's durable "
            "artifacts: cache directories, checkpoint journals, .rtb "
            "traces."
        ),
    )
    parser.add_argument(
        "paths", nargs="+", type=Path,
        help="cache or service data directories, .rjl journals, .rtb "
        "traces or queue .sqlite DBs",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true", default=True,
        help="report findings without modifying anything (default)",
    )
    mode.add_argument(
        "--repair", action="store_true",
        help="fix what can be fixed: truncate torn journal tails, "
        "salvage torn traces, delete corrupt cache entries and stale "
        "tmp files, re-queue service jobs whose lease-holder died",
    )
    parser.add_argument(
        "--tmp-age", type=float, default=DEFAULT_TMP_AGE, metavar="SECONDS",
        help=".tmp-* residue younger than this is presumed live and "
        f"skipped (default {DEFAULT_TMP_AGE:g}; 0 sweeps everything)",
    )
    add_format(parser)
    args = parser.parse_args(argv)

    for path in args.paths:
        if not path.exists():
            parser.error(f"{path}: no such file or directory")

    report = fsck_paths(
        list(args.paths), repair=args.repair, tmp_age=args.tmp_age
    )

    lines = []
    for finding in report.findings:
        status = (
            f"repaired: {finding.repair_note}" if finding.repaired
            else ("unrepairable" if not finding.repairable
                  else "needs --repair")
        )
        lines.append(
            f"[{finding.kind}] {finding.path}: {finding.detail} ({status})"
        )
    verdict = "clean" if not report.findings else (
        f"{len(report.findings)} finding(s), "
        f"{sum(f.repaired for f in report.findings)} repaired"
    )
    lines.append(f"repro fsck: {report.checked} artifact(s) checked, {verdict}")
    emit(args.format, report.to_dict(), "\n".join(lines))
    return EXIT_BROKEN if report.unrepaired else 0
