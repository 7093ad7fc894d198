"""Crash-safety proofs for the service: kill anywhere, drain converges.

The driver below is a whole service lifecycle in one subprocess: open
the data dir, upload a trace, submit a deterministic batch of jobs
(idempotently — resubmission dedupes), run a two-worker pool to drain,
print every result payload in submission order.  The chaos tests
SIGKILL-equivalent it at seeded kill points — queue transaction edges
(``queue:<op>:pre/post-commit``), result-cache stores, trace-store
upload writes — then restart and re-drain until a run completes clean,
asserting after every crash:

* **old-or-new**: ``repro fsck`` over the data dir finds only
  recognized crash residue (a stale ``.tmp-*`` upload, an orphaned
  RUNNING lease, a torn journal tail) — never a corrupt cache entry,
  torn trace, or unreadable queue DB;
* **zero lost, zero duplicated**: every submitted job is still in the
  DB in exactly one state, and the drained queue ends with every job
  DONE exactly once;
* **byte-identical convergence**: the surviving run's output equals
  the fault-free run's, byte for byte — however many crashes landed
  in between (the cache-hit replay of the journal-then-acknowledge
  protocol).

Seeds rotate across restart attempts for the same reason
``test_crashsafe.py`` rotates them: a fixed deterministic plan would
kill every restart at the same not-yet-durable site forever.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.common.durable import KILLPOINT_EXIT_STATUS
from repro.tools.fsck import fsck_paths

DRIVER = textwrap.dedent("""
    import sys
    from pathlib import Path

    from repro.harness.result_cache import ResultCache
    from repro.service.jobs import render_payload
    from repro.service.models import JobSpec
    from repro.service.queue import JobQueue
    from repro.service.tracestore import TraceStore
    from repro.service.worker import WorkerPool
    from repro.synth import generate
    from repro.trace.io import save_program

    data = Path(sys.argv[1])
    data.parent.mkdir(parents=True, exist_ok=True)
    # a deterministic .rtb, regenerated outside the audited dir each run
    sample = data.parent / "sample.rtb"
    if not sample.is_file():
        staging = data.parent / "staging-sample.rtb"  # .rtb picks binio
        save_program(
            generate("lock-counter", num_threads=2, seed=9, scale=0.03),
            staging,
        )
        staging.replace(sample)

    # max_attempts is deliberately huge: this driver is killed dozens of
    # times per seed, and every kill mid-RUNNING burns an attempt; the
    # exhaustion path has its own unit tests
    queue = JobQueue(
        data / "queue.sqlite", lease_seconds=2.0, max_attempts=999
    )
    store = TraceStore.open(data / "traces")
    uploaded = store.put_file(sample)

    specs = [
        JobSpec(kind="analyze", workload="lock-counter",
                threads=2, seed=s, scale=0.03)
        for s in range(1, 4)
    ] + [JobSpec(kind="analyze", trace=uploaded.digest)]
    ids = []
    for spec in specs:
        record, _ = queue.submit(spec)
        ids.append(record.id)

    pool = WorkerPool(queue, store, data / "cache", workers=2)
    pool.start()
    drained = pool.drain(timeout=120.0)
    pool.stop()
    assert drained, "drain did not converge"

    cache = ResultCache(data / "cache")
    for job_id in ids:
        record = queue.get(job_id)
        assert record is not None, f"job {job_id[:12]} was lost"
        assert record.state.value == "DONE", (
            f"{job_id[:12]}: {record.state.value} ({record.error})"
        )
        payload = cache.get(record.result_key, expect=dict)
        assert payload is not None, f"result of {job_id[:12]} missing"
        sys.stdout.write(render_payload(payload))
    queue.close()
""")

#: residue a kill may leave; anything else is torn-write garbage the
#: durable disciplines must make impossible
RESIDUE_KINDS = {"torn-journal", "stale-tmp", "stale-lease"}

N_JOBS = 4


def run_driver(data_dir: Path, env_extra: dict | None = None):
    env = {**os.environ, "PYTHONPATH": "src"}
    env.pop("REPRO_KILLPOINTS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-c", DRIVER, str(data_dir)],
        env=env, capture_output=True, text=True,
    )


@pytest.fixture(scope="module")
def fault_free_output(tmp_path_factory):
    """Expected stdout — and proof a warm restart dedupes to the same."""
    data_dir = tmp_path_factory.mktemp("svc-baseline") / "data"
    first = run_driver(data_dir)
    assert first.returncode == 0, first.stderr
    again = run_driver(data_dir)  # resubmit-everything restart: all dedupe
    assert again.returncode == 0, again.stderr
    assert again.stdout == first.stdout
    assert first.stdout.count("\n") == N_JOBS
    return first.stdout


def assert_old_or_new(data_dir: Path) -> None:
    report = fsck_paths([data_dir], repair=False, tmp_age=0)
    bad = [f for f in report.findings if f.kind not in RESIDUE_KINDS]
    assert not bad, [f.to_dict() for f in bad]


def crash_and_recover(data_dir: Path, seed: int, rate: float = 0.02,
                      max_attempts: int = 30, sites: str = ""):
    """Kill-restart the service driver until a run completes clean."""
    crashes = 0
    for attempt in range(max_attempts):
        spec = f"seed={seed + 1000 * attempt},rate={rate},tear=0.5"
        if sites:
            spec += f",sites={sites}"
        proc = run_driver(data_dir, env_extra={"REPRO_KILLPOINTS": spec})
        if proc.returncode == 0:
            return crashes, proc.stdout
        assert proc.returncode == KILLPOINT_EXIT_STATUS, (
            f"seed {seed} attempt {attempt}: unexpected exit "
            f"{proc.returncode}\n{proc.stderr}"
        )
        crashes += 1
        assert_old_or_new(data_dir)
    pytest.fail(f"seed {seed}: no clean run within {max_attempts} attempts")


@pytest.mark.faultinject
def test_service_crash_convergence_over_seeds(tmp_path, fault_free_output):
    """20 seeds of kill-anywhere chaos: every data dir converges to the
    fault-free output with zero lost and zero duplicated jobs."""
    from repro.service.models import JobState
    from repro.service.queue import JobQueue

    seeds = range(1, 21)
    total_crashes = 0
    for seed in seeds:
        data_dir = tmp_path / f"seed-{seed}" / "data"
        crashes, stdout = crash_and_recover(data_dir, seed)
        total_crashes += crashes
        assert stdout == fault_free_output, f"seed {seed} diverged"
        # exactly-once settlement, straight from the recovered DB
        with JobQueue(data_dir / "queue.sqlite") as queue:
            records = queue.list_jobs(limit=1000)
            assert len(records) == N_JOBS
            assert all(r.state is JobState.DONE for r in records)
    assert total_crashes >= len(seeds) // 2, total_crashes


@pytest.mark.faultinject
def test_queue_transactions_survive_targeted_kills(tmp_path, fault_free_output):
    """A kill plan aimed only at queue transaction edges, at a rate high
    enough that most transitions' pre/post-commit windows get hit."""
    data_dir = tmp_path / "queue-chaos" / "data"
    crashes, stdout = crash_and_recover(
        data_dir, seed=303, rate=0.05, max_attempts=60, sites="queue:"
    )
    assert crashes >= 1
    assert stdout == fault_free_output


@pytest.mark.faultinject
def test_trace_uploads_survive_targeted_kills(tmp_path, fault_free_output):
    """Kills aimed at the trace-store upload path: the published trace
    is always whole, residue is only ever .tmp-* files."""
    data_dir = tmp_path / "upload-chaos" / "data"
    crashes, stdout = crash_and_recover(
        data_dir, seed=707, rate=0.4, max_attempts=60, sites="trace-store"
    )
    assert crashes >= 1
    assert stdout == fault_free_output
    # the store holds exactly the one verified trace
    traces = list((data_dir / "traces").glob("*/*.rtb"))
    assert len(traces) == 1
    report = fsck_paths([data_dir], repair=False, tmp_age=0)
    assert not [f for f in report.findings if f.kind == "torn-trace"]


@pytest.mark.faultinject
def test_fsck_repairs_a_crashed_service_dir(tmp_path):
    """After a kill, ``repro fsck --repair`` leaves the dir clean and a
    subsequent restart drains it."""
    data_dir = tmp_path / "repair" / "data"
    # arm a hot plan so the first runs almost surely die
    for attempt in range(40):
        spec = f"seed={4040 + attempt},rate=0.08,tear=0.5"
        proc = run_driver(data_dir, env_extra={"REPRO_KILLPOINTS": spec})
        if proc.returncode != 0:
            break
    else:
        pytest.skip("plan never fired")
    assert proc.returncode == KILLPOINT_EXIT_STATUS
    report = fsck_paths([data_dir], repair=True, tmp_age=0)
    assert not report.unrepaired, [f.to_dict() for f in report.unrepaired]
    # repaired dir checks clean (stale leases may need their 2s to lapse,
    # but repair already expired them)
    clean = fsck_paths([data_dir], repair=False, tmp_age=3600)
    assert not [
        f for f in clean.findings if f.kind not in {"stale-lease"}
    ], [f.to_dict() for f in clean.findings]
    final = run_driver(data_dir)
    assert final.returncode == 0, final.stderr
    assert final.stdout.count("\n") == N_JOBS
