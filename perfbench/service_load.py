"""The ``service-mixed`` workload: closed-loop clients against repro-serve.

``repro-serve`` runs in its own process with 2 workers.  This process is
the load: ``CLIENTS`` threads, each submitting a job, long-polling it to
DONE, fetching its result bytes, thinking for a seeded moment and then
submitting the next (a closed loop).  Each client's job sequence is
drawn up front from the plan seed (1 or 2, the benchmark seed's parity),
so the work the service executes is the same on every run of a plan:

* every block of 20 submissions holds the same kinds (9 analyze,
  2 simulate, 1 compare, 3 trace jobs and 5 repeats) in a seeded order,
  and workloads, thread counts and protocols cycle, so every seed runs
  the same mix;
* fresh jobs get seeds no other job uses, so nothing two clients submit
  is the same work;
* one submission in four repeats a job the same client has already seen
  DONE, which the queue answers by dedupe;
* a simulate job may take one protocol of an earlier compare job of the
  same client, which the shared result cache answers with a hit;
* trace jobs first upload a fresh ``.rtb`` capture made during set-up.
"""

from __future__ import annotations

import random
import re
import signal
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from common import (
    HERE,
    ROOT,
    BenchError,
    hermetic_env,
    log,
    median,
    percentile,
    remove_dir,
    scratch_dir,
    stop_process,
)

CLIENTS = 2
WORKERS = 2

#: jobs each client submits per second of ``--seconds``; sized on 2
#: cores so a run takes about ``--seconds``, and fixed so the work (and
#: every count derived from it) repeats exactly
JOBS_PER_CLIENT_SECOND = 25

#: served results recomputed locally and compared byte for byte
VERIFY_SAMPLE = 12

#: a client thinks for a seeded uniform draw from [0, THINK_MAX_S)
#: before each submission.  An idle worker re-polls the queue every 50 ms
#: and a submission does not wake it, so without think time each client
#: falls into a fixed phase against the workers' polls, and the phase a
#: run locks into decides its latency (job p50 20-42 ms over five 8 s
#: runs on 2 cores).  Think times spread the submissions over the poll
#: period instead (22-25 ms over the same five).
THINK_MAX_S = 0.05

SYNTHETIC = ("lock-counter", "racy-readers", "migratory-token", "false-sharing")
CAPTURES = ("capture-histogram", "capture-pipeline", "capture-racy-counter")

_LISTENING = re.compile(r"listening on (http://[\d.]+:\d+)")


@dataclass
class Planned:
    """One submission: the spec, or the capture to upload first."""

    spec: object
    trace_file: Path | None = None


@dataclass
class ClientLog:
    latencies: list[float] = field(default_factory=list)
    submit: list[float] = field(default_factory=list)
    upload: list[float] = field(default_factory=list)
    result: list[float] = field(default_factory=list)
    deduped: int = 0
    submitted: int = 0
    failed: int = 0
    samples: list[tuple] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


#: one block of submissions: every block holds exactly these kinds, in a
#: seeded order, so each seed runs the same mix and the seed only moves
#: program contents and order
BLOCK = ("repeat",) * 5 + ("analyze",) * 9 + ("simulate",) * 2 + ("compare",) + ("trace",) * 3


def plan_jobs(seed: int, client: int, count: int, trace_dir: Path) -> list[Planned]:
    """The client's deterministic job sequence; writes its captures."""
    from repro.service import JobSpec
    from repro.synth import suite  # noqa: F401  (registers the generators)
    from repro.synth.base import generate
    from repro.trace.binio import save_program_bin

    rng = random.Random(f"perfbench-service:{seed}:{client}")
    kinds: list[str] = []
    while len(kinds) < count:
        block = list(BLOCK)
        rng.shuffle(block)
        if not kinds and block[0] == "repeat":  # nothing to repeat yet
            first = next(i for i, k in enumerate(block) if k != "repeat")
            block[0], block[first] = block[first], block[0]
        kinds += block
    plan: list[Planned] = []
    history: list[Planned] = []
    compares: list = []
    made = dict.fromkeys(BLOCK, 0)
    for index, kind in enumerate(kinds[:count]):
        unique = (seed % 1000) * 1_000_000 + client * 100_000 + index + 1
        n = made[kind]
        made[kind] += 1
        if kind == "repeat":
            plan.append(rng.choice(history))
            continue
        if kind == "analyze":
            job = Planned(JobSpec(
                kind="analyze", workload=SYNTHETIC[n % len(SYNTHETIC)],
                threads=(2, 4)[n // len(SYNTHETIC) % 2], scale=0.02,
                seed=unique,
            ))
        elif kind == "simulate" and compares and n % 2:
            base = compares[-1]
            job = Planned(replace(base, kind="simulate",
                                  protocols=(base.protocols[n // 2 % 2],)))
        elif kind == "simulate":
            job = Planned(JobSpec(
                kind="simulate", workload=SYNTHETIC[n // 2 % len(SYNTHETIC)],
                threads=2, scale=0.02, seed=unique,
                protocols=(("mesi", "ce", "arc")[n // 2 % 3],),
            ))
        elif kind == "compare":
            spec = JobSpec(
                kind="compare", workload=SYNTHETIC[n % len(SYNTHETIC)],
                threads=2, scale=0.02, seed=unique, protocols=("mesi", "ce"),
            )
            compares.append(spec)
            job = Planned(spec)
        else:
            program = generate(
                CAPTURES[n % len(CAPTURES)],
                num_threads=(2, 4)[n // len(CAPTURES) % 2],
                seed=unique, scale=0.05,
            )
            path = trace_dir / f"c{client}-{index}.rtb"
            save_program_bin(program, path)
            traced_kind = ("analyze", "simulate")[n % 2]
            job = Planned(
                {"kind": traced_kind,
                 "protocols": ("mesi",) if traced_kind == "simulate" else ()},
                trace_file=path,
            )
        plan.append(job)
        history.append(job)
    return plan


def plan_seed(seed: int) -> int:
    """The job-plan seed a benchmark seed selects: 1 or 2, by parity.

    Two plans, like the suites' default and held-out seeds: the exact
    counts of both are committed in ``reference.json``, so every traced
    run checks its simulated work, and seeds add no spread of their own.
    """
    return 1 + seed % 2


def _default_sigint() -> None:
    """Let SIGINT stop the server cleanly even when this process was
    started in the background, where SIGINT is inherited as ignored."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """A ``repro-serve`` process with a private data directory."""

    def __init__(self, data_dir: Path, env: dict, trace_out: Path | None = None):
        import subprocess

        prefix = [sys.executable]
        if trace_out is not None:
            prefix += [str(HERE / "tracer.py"), str(trace_out)]
        else:
            prefix += ["-m"]
        self.stderr_path = data_dir.parent / f"{data_dir.name}.stderr"
        self._stderr = open(self.stderr_path, "wb")
        self.proc = subprocess.Popen(
            [*prefix, "repro.service.server", "--host", "127.0.0.1",
             "--port", "0", "--data-dir", str(data_dir),
             "--workers", str(WORKERS), "--quiet"],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=self._stderr, stdin=subprocess.DEVNULL,
            preexec_fn=_default_sigint,
        )
        self.url = self._wait_ready()

    def _wait_ready(self, timeout: float = 60.0) -> str:
        from repro.service.client import ServiceClient

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(
                    "repro-serve exited during start-up:\n"
                    + self.stderr_path.read_text()[-2000:]
                )
            match = _LISTENING.search(self.stderr_path.read_text())
            if match:
                try:
                    if ServiceClient(match.group(1), timeout=5.0).health()["ok"]:
                        return match.group(1)
                except Exception:  # noqa: BLE001 - not accepting yet
                    pass
            time.sleep(0.005)
        self.stop()
        raise BenchError("repro-serve did not become healthy in time")

    def stop(self) -> float:
        """Stop the server; its peak RSS in MB."""
        try:
            return stop_process(self.proc)
        finally:
            self._stderr.close()


def think_times(seed: int, client: int, count: int) -> list[float]:
    """The client's seeded think times; drawn apart from the plan, so the
    executed work does not depend on them."""
    rng = random.Random(f"perfbench-think:{seed}:{client}")
    return [THINK_MAX_S * rng.random() for _ in range(count)]


def _client_loop(url: str, plan: list[Planned], thinks: list[float],
                 log_: ClientLog) -> None:
    from repro.service import JobState
    from repro.service.client import ServiceClient

    client = ServiceClient(url, timeout=120.0)
    for job, think in zip(plan, thinks):
        time.sleep(think)
        try:
            spec = job.spec
            if job.trace_file is not None:
                start = time.perf_counter()
                info = client.upload_trace(job.trace_file)
                log_.upload.append(time.perf_counter() - start)
                spec = _trace_spec(spec, info.digest)
            start = time.perf_counter()
            record, deduped = client.submit(spec)
            log_.submit.append(time.perf_counter() - start)
            log_.submitted += 1
            log_.deduped += deduped
            final = client.wait(record.id, timeout=120.0)
            log_.latencies.append(time.perf_counter() - start)
            if final.state is not JobState.DONE:
                log_.failed += 1
                log_.errors.append(f"job {record.id[:12]} ended {final.state}")
                continue
            start = time.perf_counter()
            body = client.result_bytes(record.id)
            log_.result.append(time.perf_counter() - start)
            # every tenth settled job, up to the sample size
            if len(log_.samples) < VERIFY_SAMPLE and len(log_.result) % 10 == 1:
                log_.samples.append((spec, job.trace_file, body))
        except Exception as exc:  # noqa: BLE001 - a failed job, not a crash
            log_.failed += 1
            log_.errors.append(f"{type(exc).__name__}: {exc}")


def _trace_spec(template: dict, digest: str):
    from repro.service import JobSpec

    return JobSpec(kind=template["kind"], trace=digest,
                   protocols=template["protocols"])


def run_load(url: str, plans: list[list[Planned]],
             thinks: list[list[float]]) -> tuple[float, list[ClientLog]]:
    logs = [ClientLog() for _ in plans]
    threads = [
        threading.Thread(target=_client_loop, args=(url, plan, think, log_))
        for plan, think, log_ in zip(plans, thinks, logs)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, logs


def verify_samples(logs: list[ClientLog], store_dir: Path) -> list[str]:
    """Served bytes must equal ``execute_job`` + ``render_payload`` here."""
    from repro.service.jobs import execute_job, render_payload
    from repro.service.tracestore import TraceStore

    store = TraceStore(store_dir)
    errors = []
    for log_ in logs:
        for spec, trace_file, body in log_.samples:
            if trace_file is not None:
                store.put_file(trace_file)
            local = render_payload(execute_job(spec, store=store)).encode()
            if local != body:
                errors.append(f"served result of {spec.job_id()[:12]} differs "
                              "from the local run")
    return errors


def cache_hit_frac(url: str) -> float:
    from repro.service.client import ServiceClient

    cache = ServiceClient(url).stats()["cache"]
    looked = cache["hits"] + cache["misses"]
    return cache["hits"] / looked if looked else 0.0


class ServiceRun:
    """One service-mixed run: inputs, server set-ups, load, checks."""

    def __init__(self, seed: int, seconds: float):
        self.plan_seed = plan_seed(seed)
        self.tmp = scratch_dir("service-")
        self.env = hermetic_env(self.tmp)
        self.setup_times: list[float] = []
        self.jobs_per_client = max(10, round(JOBS_PER_CLIENT_SECOND * seconds))
        trace_dir = self.tmp / "captures"
        trace_dir.mkdir()
        self.plans = [
            plan_jobs(self.plan_seed, client, self.jobs_per_client, trace_dir)
            for client in range(CLIENTS)
        ]
        self.thinks = [
            think_times(self.plan_seed, client, self.jobs_per_client)
            for client in range(CLIENTS)
        ]
        self._servers = 0

    def reference_counts(self, reference: dict) -> dict | None:
        """The committed exact counts of this run's plan, if any."""
        return (reference["counts"].get("service", {})
                .get(str(self.jobs_per_client), {}).get(str(self.plan_seed)))

    def close(self) -> None:
        remove_dir(self.tmp)

    def start(self, trace_out: Path | None = None) -> Server:
        self._servers += 1
        data_dir = self.tmp / f"data{self._servers}"
        return Server(data_dir, self.env, trace_out)

    def setup(self, repeats: int) -> Server:
        """Start a server ``repeats`` times (fresh data directory each);
        the median start-up to healthy is ``setup_s``.  The last one
        stays up for the measurement."""
        server = None
        for _ in range(repeats):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            server = self.start()
            self.setup_times.append(time.perf_counter() - start)
        return server

    def measure(self, server: Server, *, verify: bool = True) -> "LoadResult":
        try:
            wall, logs = run_load(server.url, self.plans, self.thinks)
            hit_frac = cache_hit_frac(server.url)
        finally:
            rss = server.stop()
        errors = [e for log_ in logs for e in log_.errors]
        if server.proc.returncode != 0:
            errors.append(f"repro-serve exited with {server.proc.returncode}")
        mismatched = 0
        if verify:
            mismatches = verify_samples(logs, self.tmp / f"local{self._servers}")
            mismatched = len(mismatches)
            errors += mismatches
        for error in errors[:10]:
            log(f"check failed: {error}")
        return LoadResult(wall, rss, logs, hit_frac, errors,
                          planned=sum(len(p) for p in self.plans),
                          mismatched=mismatched)


@dataclass
class LoadResult:
    wall_s: float
    rss_mb: float
    logs: list[ClientLog]
    cache_hit_frac: float
    errors: list[str]
    planned: int
    mismatched: int

    @property
    def latencies(self) -> list[float]:
        return [x for log_ in self.logs for x in log_.latencies]

    @property
    def failed(self) -> int:
        return sum(log_.failed for log_ in self.logs) + self.mismatched

    def end_to_end(self, setup_times: list[float]) -> dict:
        latencies = self.latencies
        return {
            "wall_s": self.wall_s,
            "peak_rss_mb": self.rss_mb,
            "job_p50_ms": 1000.0 * percentile(latencies, 50),
            "job_p99_ms": 1000.0 * percentile(latencies, 99),
            "jobs_per_s": len(latencies) / self.wall_s,
            "setup_s": median(setup_times),
        }

    def client_metrics(self) -> dict:
        def ms(attr):
            values = [x for log_ in self.logs for x in getattr(log_, attr)]
            return 1000.0 * median(values) if values else 0.0

        submitted = sum(log_.submitted for log_ in self.logs)
        return {
            "service.submit_ms": ms("submit"),
            "service.upload_ms": ms("upload"),
            "service.result_ms": ms("result"),
            "service.dedupe_frac": (
                sum(log_.deduped for log_ in self.logs) / submitted
                if submitted else 0.0
            ),
            "service.cache_hit_frac": self.cache_hit_frac,
        }
