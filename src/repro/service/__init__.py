"""Conflict-analysis service: a long-running front door over the harness.

Everything below the service already existed — the durable persistence
core (:mod:`repro.common.durable`), the executor resilience layer
(:mod:`repro.harness.executor`), the content-addressed
:class:`~repro.harness.result_cache.ResultCache` and the streaming
``.rtb`` trace format — this package adds the parts that turn a batch
CLI into a multi-client server:

* :mod:`~repro.service.models` — typed request/response dataclasses
  shared by the server, the workers and the client.
* :mod:`~repro.service.queue` — a SQLite-backed persistent priority job
  queue with lease-based claiming: a killed worker's job is re-queued,
  never lost, and ``kill -9`` anywhere never loses or duplicates a job.
* :mod:`~repro.service.tracestore` — content-addressed store of
  uploaded ``.rtb`` traces (streaming writes, integrity-checked).
* :mod:`~repro.service.jobs` — job execution through the executor
  (shared verbatim by the workers and ``repro client run-local``, which
  is what makes HTTP results byte-identical to direct runs).
* :mod:`~repro.service.worker` — in-process worker pool with lease
  heartbeats; results are journaled durably before acknowledgement.
* :mod:`~repro.service.server` — the threaded stdlib HTTP front door
  (``repro serve``).
* :mod:`~repro.service.client` — stdlib HTTP client + ``repro client``.

See docs/SERVICE.md for the API reference and the durability matrix.
"""

from .client import ServiceClient
from .jobs import execute_job, render_payload, result_key
from .models import (
    JobRecord,
    JobSpec,
    JobState,
    PROTOCOL_CHOICES,
    QueueStats,
    TraceInfo,
)
from .queue import JobQueue
from .server import ConflictService, make_server
from .tracestore import TraceStore
from .worker import WorkerPool

__all__ = [
    "ConflictService",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "JobState",
    "PROTOCOL_CHOICES",
    "QueueStats",
    "ServiceClient",
    "TraceInfo",
    "TraceStore",
    "WorkerPool",
    "execute_job",
    "make_server",
    "render_payload",
    "result_key",
]
