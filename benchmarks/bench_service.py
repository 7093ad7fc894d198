"""Service load benchmark: concurrent clients against ``repro serve``.

A real :class:`~repro.service.server.ConflictService` (HTTP over actual
sockets, 4 in-process workers) is driven by **4 concurrent clients
submitting 200 mixed jobs** — analyze-heavy with simulate and compare
sprinkled in, across the priority range — then each client long-polls
its own jobs to completion.  Reported to ``BENCH_service.json``:

* **throughput** — settled jobs per second, first submission to last
  completion, gated by the committed ``floor``;
* **latency** — p50/p95/p99 of submit-to-completion per job, using the
  queue's own settlement timestamps (not poll observation, so the
  percentiles are honest about scheduling delay, not poll granularity).

The **graceful-saturation** check runs separately: a bulk-priority
compare job is submitted first, then buried under a flood of urgent
cheap jobs.  The server must keep answering ``/api/health`` while the
backlog drains, the queue depth must shrink monotonically-ish to zero,
and — priority aging — the buried bulk job must complete despite never
winning a head-to-head priority comparison.

Correctness is asserted before any number counts: every job DONE,
dedupe collapsing nothing (all 200 specs are distinct work).

Run standalone (``python benchmarks/bench_service.py``) to print and
refresh ``BENCH_service.json``; the pytest entry (CI ``service`` job)
enforces the committed floor.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.service import ConflictService, JobSpec, JobState, make_server
from repro.service.client import ServiceClient

DEFAULT_FLOOR_JOBS_PER_S = 3.0

N_CLIENTS = 4
N_JOBS = 200
WORKERS = 4

#: generous bound for /api/health round-trips taken *while* the worker
#: pool is saturated — the front door must not block behind the backlog
HEALTH_BUDGET_S = 2.0


def _job_mix() -> list[JobSpec]:
    """200 distinct, mostly-cheap jobs across kinds and priorities."""
    specs: list[JobSpec] = []
    for i in range(N_JOBS):
        seed = 1_000 + i  # distinct seed => distinct work => no dedupe
        if i % 20 == 0:
            specs.append(JobSpec(
                kind="compare", workload="lock-counter", threads=2,
                scale=0.02, seed=seed, protocols=("mesi", "ce"),
                priority=i % 10,
            ))
        elif i % 5 == 0:
            specs.append(JobSpec(
                kind="simulate", workload="racy-readers", threads=2,
                scale=0.02, seed=seed, protocols=("mesi",),
                priority=i % 10,
            ))
        else:
            specs.append(JobSpec(
                kind="analyze", workload="lock-counter", threads=2,
                scale=0.02, seed=seed, priority=i % 10,
            ))
    return specs


def _percentile(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


class _Service:
    def __init__(self, data_dir: Path, *, workers: int = WORKERS, **kw):
        self.svc = ConflictService(data_dir, workers=workers, **kw)
        self.httpd = make_server(self.svc, port=0)
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True
        )

    def __enter__(self) -> str:
        self.thread.start()
        self.svc.start()
        return f"http://127.0.0.1:{self.httpd.server_address[1]}"

    def __exit__(self, *exc) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.svc.stop()


def bench_load(data_dir: Path, floor: float) -> dict:
    specs = _job_mix()
    assert len({s.job_id() for s in specs}) == N_JOBS, "mix must not dedupe"
    shards = [specs[i::N_CLIENTS] for i in range(N_CLIENTS)]
    results: list[list[tuple[float, float]]] = [[] for _ in range(N_CLIENTS)]
    errors: list[BaseException] = []

    with _Service(data_dir) as url:
        def one_client(index: int) -> None:
            try:
                client = ServiceClient(url, timeout=120.0)
                submitted = []
                for spec in shards[index]:
                    t0 = time.time()
                    record, deduped = client.submit(spec)
                    assert not deduped
                    submitted.append((record.id, t0))
                for job_id, t0 in submitted:
                    final = client.wait(job_id, timeout=600.0)
                    assert final.state is JobState.DONE, (
                        f"{job_id[:12]} ended {final.state}: {final.error}"
                    )
                    # settlement timestamp from the queue row itself
                    results[index].append((t0, final.updated))
            except BaseException as exc:  # noqa: B902 - re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(target=one_client, args=(i,))
            for i in range(N_CLIENTS)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start

    if errors:
        raise errors[0]
    flat = [pair for shard in results for pair in shard]
    assert len(flat) == N_JOBS
    first_submit = min(t0 for t0, _ in flat)
    last_done = max(done for _, done in flat)
    throughput = N_JOBS / (last_done - first_submit)
    latencies = sorted(done - t0 for t0, done in flat)
    payload = {
        "clients": N_CLIENTS,
        "jobs": N_JOBS,
        "workers": WORKERS,
        "throughput_jobs_per_s": round(throughput, 2),
        "p50_s": round(_percentile(latencies, 0.50), 3),
        "p95_s": round(_percentile(latencies, 0.95), 3),
        "p99_s": round(_percentile(latencies, 0.99), 3),
        "wall_s": round(wall, 2),
    }
    assert throughput >= floor, (
        f"{throughput:.2f} jobs/s under the committed floor of "
        f"{floor:.2f} jobs/s: {payload}"
    )
    return payload


def bench_saturation(data_dir: Path) -> dict:
    """Bury a bulk job under urgent flood; the server must stay
    responsive, drain, and age the bulk job through."""
    flood = [
        JobSpec(kind="analyze", workload="lock-counter", threads=2,
                scale=0.02, seed=50_000 + i, priority=0)
        for i in range(60)
    ]
    with _Service(data_dir, aging_seconds=1.0) as url:
        client = ServiceClient(url, timeout=120.0)
        bulk, _ = client.submit(JobSpec(
            kind="compare", workload="lock-counter", threads=2, scale=0.02,
            seed=49_999, protocols=("mesi", "ce"), priority=9,
        ))
        for spec in flood:
            client.submit(spec)
        max_health_s = 0.0
        max_depth = 0
        deadline = time.monotonic() + 600.0
        while time.monotonic() < deadline:
            t0 = time.perf_counter()
            assert client.health()["ok"]
            max_health_s = max(max_health_s, time.perf_counter() - t0)
            stats = client.stats()
            max_depth = max(max_depth, stats["queue"]["depth"])
            if stats["queue"]["depth"] == 0:
                break
            time.sleep(0.1)
        final = client.job(bulk.id)
        assert final.state is JobState.DONE, (
            f"bulk job starved: {final.state} ({final.error})"
        )
        stats = client.stats()
    assert stats["queue"]["depth"] == 0, "backlog did not drain"
    assert stats["queue"]["done"] == len(flood) + 1
    assert max_health_s < HEALTH_BUDGET_S, (
        f"front door took {max_health_s:.2f}s to answer /api/health "
        f"under backlog (budget {HEALTH_BUDGET_S:.1f}s)"
    )
    assert max_depth <= len(flood) + 1, "depth exceeded what was submitted"
    return {
        "flood_jobs": len(flood),
        "max_depth": max_depth,
        "max_health_s": round(max_health_s, 3),
        "bulk_job_done": True,
    }


def bench_service(tmp_root: Path, floor: float) -> dict:
    return {
        "floor": floor,
        "load": bench_load(tmp_root / "load", floor),
        "saturation": bench_saturation(tmp_root / "saturation"),
    }


def test_bench_service(tmp_path):
    """Pytest entry (CI service job): throughput must clear the floor
    committed in BENCH_service.json, saturation must stay graceful."""
    from conftest import committed_floor

    bench_service(
        tmp_path, committed_floor("service", DEFAULT_FLOOR_JOBS_PER_S)
    )


def main() -> int:
    import tempfile

    from conftest import committed_floor, record_bench

    with tempfile.TemporaryDirectory() as tmp:
        payload = bench_service(
            Path(tmp), committed_floor("service", DEFAULT_FLOOR_JOBS_PER_S)
        )
    load, sat = payload["load"], payload["saturation"]
    print(
        f"{load['jobs']} jobs, {load['clients']} clients, "
        f"{load['workers']} workers: "
        f"{load['throughput_jobs_per_s']:.2f} jobs/s "
        f"(floor {payload['floor']:.2f}), "
        f"p50 {load['p50_s']:.3f}s p95 {load['p95_s']:.3f}s "
        f"p99 {load['p99_s']:.3f}s"
    )
    print(
        f"saturation: depth<= {sat['max_depth']}, health<= "
        f"{sat['max_health_s']:.3f}s, bulk job aged through: "
        f"{sat['bulk_job_done']}"
    )
    record_bench("service", payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
