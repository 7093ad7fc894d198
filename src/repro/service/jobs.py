"""Job execution: the one code path behind workers and ``run-local``.

:func:`execute_job` turns a validated :class:`~repro.service.models.JobSpec`
into a plain JSON-compatible result dict.  The service's equivalence
contract — a job submitted over HTTP returns bytes identical to the
same spec run directly — holds *by construction* because the worker
pool and ``repro client run-local`` both call this function and
serialize with :func:`render_payload`; there is no server-side result
shaping to drift.

Simulations run through the executor resilience layer
(:class:`~repro.harness.executor.Executor`): per-job wall-clock
timeouts, typed transient retries, and the content-addressed result
cache all apply exactly as they do to batch sweeps.  Per-protocol
renderings use :func:`repro.core.results.render_result`, the same
canonical form the per-point golden digests pin — so a service result
is comparable, byte for byte, with any other path through the
simulator.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading

from ..common.config import ENGINE_ENV, SystemConfig, resolve_engine
from ..common.errors import PointFailure, ServiceError
from ..harness.executor import (
    Executor,
    SimPoint,
    WorkloadSpec,
    load_simulation_stack,
)
from ..trace import binio, io, regions  # noqa: F401  (see below)
from ..trace.program import Program
from .models import JobSpec, canonical_json, protocol_config
from .tracestore import TraceStore

# Jobs simulate, decode stored traces (binio, io) and analyze (regions)
# from the first one on: load those modules with the server, not inside
# its first jobs, where they cost latency and raised the server's peak
# RSS by about 1.5 MB.
load_simulation_stack()

#: the result-cache payload schema; bump when the dict shape changes
RESULT_SCHEMA = 1


def result_key(spec: JobSpec) -> str:
    """Content-addressed cache key of a spec's *result* payload.

    Shares the spec's work identity but is salted apart from both the
    queue's job ids and the executor's simulation-point keys, so the
    three key spaces can never collide inside one cache directory.
    """
    import hashlib

    return hashlib.sha256(
        (f"service-result/schema{RESULT_SCHEMA}:"
         + canonical_json(spec.work_dict())).encode("utf-8")
    ).hexdigest()


def render_payload(payload: dict) -> str:
    """The canonical wire rendering of a result payload.

    Sorted keys, minimal separators, newline-terminated: the exact
    bytes the byte-for-byte equivalence contract is stated over.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# -- result-neutral execution knobs -----------------------------------------

#: serializes engine/sanitize env overrides across worker threads —
#: the knobs are process-global, the jobs are not
_knob_lock = threading.Lock()


@contextlib.contextmanager
def _execution_knobs(engine: str | None, sanitize: bool):
    """Apply a job's engine/sanitize choice for the duration of its run.

    Both knobs ride environment variables (so forked executor workers
    inherit them); both are proven result-neutral — the differential
    suite for the engine, the stdout-identity contract for the
    sanitizer — which is why they are excluded from result keys.  The
    lock keeps concurrent worker threads from clobbering each other's
    overrides.
    """
    if engine is None and not sanitize:
        yield
        return
    resolve_engine(engine)  # validate before mutating the environment
    with _knob_lock:
        saved_engine = os.environ.get(ENGINE_ENV)
        saved_sanitize = os.environ.get("REPRO_SANITIZE")
        try:
            if engine is not None:
                os.environ[ENGINE_ENV] = engine
            if sanitize:
                os.environ["REPRO_SANITIZE"] = "1"
            yield
        finally:
            for key, saved in (
                (ENGINE_ENV, saved_engine), ("REPRO_SANITIZE", saved_sanitize)
            ):
                if saved is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = saved


# -- workload resolution -----------------------------------------------------


def _next_power_of_two(n: int) -> int:
    power = 1
    while power < n:
        power *= 2
    return power


def resolve_workload(
    spec: JobSpec, store: TraceStore | None
) -> WorkloadSpec | Program:
    """The executor workload a spec names: a recipe, or a stored trace."""
    if spec.workload is not None:
        from ..synth.base import registered_workloads

        if spec.workload not in registered_workloads():
            raise ServiceError(
                f"unknown workload {spec.workload!r}; "
                "GET /api/workloads lists the registry"
            )
        return WorkloadSpec.make(
            spec.workload,
            num_threads=spec.threads,
            seed=spec.seed,
            scale=spec.scale,
        )
    if store is None:
        raise ServiceError("trace jobs need a trace store")
    return store.load_program(spec.trace)  # type: ignore[arg-type]


def resolve_config(spec: JobSpec, workload: WorkloadSpec | Program) -> SystemConfig:
    """The base system config for a job (cores default to thread count)."""
    threads = (
        workload.num_threads if isinstance(workload, Program)
        else spec.threads
    )
    cores = spec.num_cores if spec.num_cores is not None else (
        _next_power_of_two(max(2, threads))
    )
    if cores & (cores - 1):
        raise ServiceError(
            f"num_cores must be a power of two (mesh/banking), got {cores}"
        )
    if cores < threads:
        raise ServiceError(
            f"num_cores={cores} cannot host {threads} thread(s)"
        )
    return SystemConfig(num_cores=cores)


# -- execution ---------------------------------------------------------------


def execute_job(
    spec: JobSpec,
    *,
    store: TraceStore | None = None,
    executor: Executor | None = None,
) -> dict:
    """Run one job to a JSON-compatible result payload.

    ``executor`` carries the resilience policy (cache, timeout,
    retries); None runs serially in-process with no cache — the
    ``run-local`` reference path.  Raises typed harness errors on
    terminal failures; the caller owns mapping those onto queue states.
    """
    workload = resolve_workload(spec, store)
    cfg = resolve_config(spec, workload)
    payload: dict = {
        "schema": RESULT_SCHEMA,
        "job": spec.work_dict(),
        "kind": spec.kind,
        "num_cores": cfg.num_cores,
    }
    with _execution_knobs(spec.engine, spec.sanitize):
        if spec.kind == "analyze":
            payload["analyze"] = _run_analyze(cfg, workload)
        else:
            payload["results"] = _run_simulations(spec, cfg, workload, executor)
            if spec.kind == "compare":
                payload["normalized"] = _normalize(payload["results"])
    return payload


def _run_analyze(cfg: SystemConfig, workload: WorkloadSpec | Program) -> dict:
    from ..tools.analyze import analyze_program

    program = (
        workload if isinstance(workload, Program) else workload.build()
    )
    return analyze_program(program, cfg)


def _run_simulations(
    spec: JobSpec,
    cfg: SystemConfig,
    workload: WorkloadSpec | Program,
    executor: Executor | None,
) -> dict:
    from ..core.results import render_result

    points = [
        SimPoint(protocol_config(cfg, name), workload)
        for name in spec.protocols
    ]
    if executor is None:
        executor = Executor(jobs=1)
    flat = executor.run_points(points)
    results: dict[str, dict] = {}
    for name, outcome in zip(spec.protocols, flat):
        if isinstance(outcome, PointFailure):
            # keep_going executors surface per-protocol failures in-band
            results[name] = {"failed": outcome.kind, "error": outcome.message}
            continue
        results[name] = {
            "summary": outcome.summary(),
            "render": render_result(outcome),
        }
    return results


def _normalize(results: dict) -> dict:
    """Per-protocol metric ratios against the MESI baseline.

    The Regional-Consistency-style comparative view: every requested
    protocol's summary metrics relative to ``mesi`` (absent when the
    client didn't include the baseline, or a baseline point failed).
    """
    baseline = results.get("mesi", {}).get("summary")
    if not baseline:
        return {}
    normalized: dict[str, dict[str, float]] = {}
    for name, entry in results.items():
        summary = entry.get("summary")
        if summary is None:
            continue
        normalized[name] = {
            metric: (value / baseline[metric]) if baseline[metric] else 0.0
            for metric, value in summary.items()
        }
    return normalized
