"""``repro fsck`` against the committed corrupted golden fixtures.

The fixtures under tests/fixtures/fsck/cachedir plant one instance of
every repairable defect class (torn journal tail, corrupt cache entry,
stale tmp residue, truncated trace).  These tests pin the recovery
contract: ``--check`` finds them all and modifies nothing, ``--repair``
fixes them all, and a repaired tree is clean.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.common import durable
from repro.cli import EXIT_BROKEN
from repro.common.errors import ConfigError
from repro.tools.fsck import fsck_paths, main
from repro.trace.binio import load_program_bin

FIXTURES = Path(__file__).parent / "fixtures" / "fsck" / "cachedir"

#: every defect class the committed tree plants, exactly once
EXPECTED_KINDS = {"torn-journal", "torn-trace", "corrupt-entry", "stale-tmp"}


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.fixture
def cachedir(tmp_path):
    dest = tmp_path / "cachedir"
    shutil.copytree(FIXTURES, dest)
    return dest


class TestCommittedFixtures:
    def test_check_finds_every_defect_and_exits_4(self, cachedir, capsys):
        assert main([str(cachedir), "--tmp-age", "0"]) == EXIT_BROKEN
        out = capsys.readouterr().out
        for kind in EXPECTED_KINDS:
            assert f"[{kind}]" in out

    def test_check_is_side_effect_free(self, cachedir):
        before = tree_bytes(cachedir)
        main([str(cachedir), "--tmp-age", "0"])
        assert tree_bytes(cachedir) == before

    def test_repair_fixes_everything(self, cachedir):
        assert main([str(cachedir), "--repair", "--tmp-age", "0"]) == 0
        # a second pass over the repaired tree is clean
        report = fsck_paths([cachedir], repair=False, tmp_age=0)
        assert report.findings == []
        # and the repaired artifacts actually load
        scanned = durable.scan_frames(
            (cachedir / "checkpoint.rjl").read_bytes()
        )
        assert scanned.torn_bytes == 0
        assert len(list(scanned.payloads)) == 2
        program = load_program_bin(cachedir / "torn.rtb")
        assert program.num_threads == 2
        assert not list(cachedir.rglob("*.pkl"))  # deleted, recomputable
        assert not list(cachedir.rglob(".tmp-*"))

    def test_json_report(self, cachedir, capsys):
        assert main(
            [str(cachedir), "--tmp-age", "0", "--format", "json"]
        ) == EXIT_BROKEN
        payload = json.loads(capsys.readouterr().out)
        assert {f["kind"] for f in payload["findings"]} == EXPECTED_KINDS
        assert payload["clean"] is False
        assert payload["repaired"] == 0

    def test_regenerator_reproduces_the_defect_classes(self, tmp_path,
                                                       monkeypatch):
        """regen.py run fresh plants exactly the committed defects —
        the committed tree can always be rebuilt."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "fsck_regen", FIXTURES.parent / "regen.py"
        )
        regen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(regen)
        monkeypatch.setattr(regen, "FIXTURE_ROOT", tmp_path / "cachedir")
        regen.main()
        report = fsck_paths([tmp_path / "cachedir"], repair=False, tmp_age=0)
        assert {f.kind for f in report.findings} == EXPECTED_KINDS
        assert all(f.repairable for f in report.findings)


class TestCliEdges:
    def test_missing_path_errors(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / "nope")])
        assert exc.value.code == 2

    def test_unknown_file_type_rejected(self, tmp_path):
        stray = tmp_path / "notes.txt"
        stray.write_text("hi")
        with pytest.raises(ConfigError, match="not a directory"):
            main([str(stray)])

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        journal = durable.FramedJournal(tmp_path / "ck.rjl")
        journal.append(b"fine")
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_unrepairable_header_damage_still_exits_4(self, cachedir):
        (cachedir / "torn.rtb").write_bytes(b"NOPE not a trace at all")
        rc = main([str(cachedir), "--repair", "--tmp-age", "0"])
        assert rc == EXIT_BROKEN  # torn-trace finding stays unrepaired


class TestServiceDir:
    """fsck over a ``repro serve`` data dir: stale leases and upload residue."""

    @pytest.fixture
    def service_dir(self, tmp_path):
        from repro.service.models import JobSpec
        from repro.service.queue import JobQueue

        root = tmp_path / "data"
        (root / "traces").mkdir(parents=True)
        clock = [1000.0]
        with JobQueue(
            root / "queue.sqlite", lease_seconds=5.0, clock=lambda: clock[0]
        ) as queue:
            queue.submit(JobSpec(kind="analyze", workload="lock-counter"))
            queue.claim("worker-died")
            clock[0] += 100.0  # the lease is long gone, nobody expired it
        orphan = root / "traces" / f"{durable.TMP_PREFIX}upload"
        orphan.write_bytes(b"half an upload")
        return root

    def test_stale_lease_is_found_not_repaired_by_check(self, service_dir):
        report = fsck_paths([service_dir], repair=False, tmp_age=0)
        kinds = {f.kind for f in report.findings}
        assert kinds == {"stale-lease", "stale-tmp"}
        assert all(not f.repaired for f in report.findings)
        # check mode left the job RUNNING
        from repro.service.models import JobState
        from repro.service.queue import JobQueue

        with JobQueue(service_dir / "queue.sqlite") as queue:
            assert queue.list_jobs()[0].state is JobState.RUNNING

    def test_repair_requeues_the_job_and_gcs_the_upload(self, service_dir):
        report = fsck_paths([service_dir], repair=True, tmp_age=0)
        assert not report.unrepaired, [f.to_dict() for f in report.unrepaired]
        lease = next(f for f in report.findings if f.kind == "stale-lease")
        assert "re-queued as PENDING" in lease.repair_note
        assert not (service_dir / "traces" / f"{durable.TMP_PREFIX}upload").exists()
        from repro.service.models import JobState
        from repro.service.queue import JobQueue

        with JobQueue(service_dir / "queue.sqlite") as queue:
            record = queue.list_jobs()[0]
            assert record.state is JobState.PENDING
            assert record.owner is None
        # and a repaired dir checks clean
        clean = fsck_paths([service_dir], repair=False, tmp_age=0)
        assert not clean.findings, [f.to_dict() for f in clean.findings]

    def test_live_lease_is_not_flagged(self, tmp_path):
        from repro.service.models import JobSpec
        from repro.service.queue import JobQueue

        root = tmp_path / "data"
        with JobQueue(root / "queue.sqlite", lease_seconds=3600.0) as queue:
            queue.submit(JobSpec(kind="analyze", workload="lock-counter"))
            queue.claim("healthy-worker")
        report = fsck_paths([root], repair=False, tmp_age=0)
        assert not report.findings

    def test_queue_db_path_is_accepted_directly(self, service_dir):
        report = fsck_paths(
            [service_dir / "queue.sqlite"], repair=False, tmp_age=0
        )
        assert {f.kind for f in report.findings} == {"stale-lease"}

    def test_garbage_sqlite_is_an_unrepairable_finding(self, tmp_path):
        bogus = tmp_path / "queue.sqlite"
        bogus.write_bytes(b"definitely not a database" * 100)
        report = fsck_paths([tmp_path], repair=True, tmp_age=0)
        assert [f.kind for f in report.findings] == ["bad-queue-db"]
        assert not report.findings[0].repairable
