"""The HTTP front door: ``repro serve``.

A threaded stdlib :class:`http.server.ThreadingHTTPServer` over the
durable pieces — :class:`~repro.service.queue.JobQueue`,
:class:`~repro.service.tracestore.TraceStore`, the shared
:class:`~repro.harness.result_cache.ResultCache`, and an in-process
:class:`~repro.service.worker.WorkerPool`.  Zero dependencies beyond
the standard library, matching the repo's portability rule.

API (all responses JSON unless noted)::

    GET  /api/health                      liveness + version
    GET  /api/stats                       queue depth, cache hits, traces
    GET  /api/workloads                   registered synthetic workloads
    GET  /api/protocols                   protocol names jobs may request
    POST /api/traces                      raw .rtb body -> TraceInfo (201/200)
    GET  /api/traces/<digest>             TraceInfo for a stored trace
    POST /api/jobs                        JobSpec JSON -> {job, deduped}
    GET  /api/jobs?state=&limit=          recent jobs, newest first
    GET  /api/jobs/<id>[?wait=SECONDS]    one job; wait long-polls terminal
    GET  /api/jobs/<id>/result            canonical result payload bytes

Errors are structured: ``{"error": ...}`` with 400 for a malformed
request (:class:`~repro.common.errors.ServiceError` at the edge), 404
for unknown ids, 409 for a result requested before the job is DONE, and
413 for an oversized upload.  Uploads stream to disk in O(chunk)
memory; result bytes are served exactly as
:func:`~repro.service.jobs.render_payload` produced them, so an HTTP
client and a local run can be compared with ``cmp``.
"""

from __future__ import annotations

import argparse
import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..common.errors import ServiceError
from ..harness.result_cache import ResultCache
from .jobs import render_payload, result_key
from .models import (
    JOB_KINDS,
    PROTOCOL_CHOICES,
    JobSpec,
    JobState,
)
from .queue import JobQueue
from .tracestore import CHUNK_BYTES, TraceStore
from .worker import WorkerPool

#: refuse uploads past this size before reading a byte (413)
MAX_UPLOAD_BYTES = 1 << 30

#: cap a single long-poll so dead clients cannot pin handler threads
MAX_WAIT_SECONDS = 60.0


class ConflictService:
    """The composed service: queue + trace store + cache + worker pool.

    Owns one data directory::

        <data_dir>/queue.sqlite   the persistent job queue
        <data_dir>/traces/        content-addressed uploaded .rtb files
        <data_dir>/cache/         the shared result cache (sim points
                                  and rendered job payloads)
    """

    def __init__(
        self,
        data_dir: str | Path,
        *,
        workers: int = 2,
        lease_seconds: float = 30.0,
        max_attempts: int = 3,
        aging_seconds: float = 60.0,
        quiet: bool = True,
    ):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.queue = JobQueue(
            self.data_dir / "queue.sqlite",
            lease_seconds=lease_seconds,
            max_attempts=max_attempts,
            aging_seconds=aging_seconds,
        )
        self.store = TraceStore.open(self.data_dir / "traces")
        self.cache = ResultCache.open(self.data_dir / "cache")
        self.pool = (
            WorkerPool(
                self.queue,
                self.store,
                self.data_dir / "cache",
                workers=workers,
                quiet=quiet,
            )
            if workers > 0
            else None
        )

    def start(self) -> "ConflictService":
        if self.pool is not None:
            self.pool.start()
        return self

    def stop(self) -> None:
        if self.pool is not None:
            self.pool.stop()
        self.queue.close()

    def __enter__(self) -> "ConflictService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- operations the handler delegates to ----------------------------

    def submit(self, spec: JobSpec) -> tuple[dict, bool]:
        record, deduped = self.queue.submit(spec)
        return record.to_dict(), deduped

    def result_text(self, job_id: str) -> str:
        """The canonical payload bytes of a DONE job (or a typed refusal)."""
        record = self.queue.get(job_id)
        if record is None:
            raise _NotFound(f"no such job: {job_id}")
        if record.state is not JobState.DONE:
            raise _Conflict(
                f"job {job_id[:12]} is {record.state.value}, not DONE"
                + (f": {record.error}" if record.error else "")
            )
        payload = self.cache.get(
            record.result_key or result_key(record.spec), expect=dict
        )
        if payload is None:
            raise _NotFound(
                f"result of job {job_id[:12]} was evicted; resubmit the job"
            )
        return render_payload(payload)

    def stats(self) -> dict:
        data: dict = {
            "queue": self.queue.stats().to_dict(),
            "traces": len(self.store.digests()),
            "workers": len(self.pool.workers) if self.pool else 0,
            "executed": self.pool.executed() if self.pool else 0,
        }
        cache = self.pool.cache_stats() if self.pool else {
            "hits": 0, "misses": 0, "stores": 0, "corrupt_evictions": 0
        }
        # the front door's own cache instance serves result reads
        cache["hits"] += self.cache.stats.hits
        cache["misses"] += self.cache.stats.misses
        cache["stores"] += self.cache.stats.stores
        cache["corrupt_evictions"] += self.cache.stats.corrupt_evictions
        data["cache"] = cache
        return data


class _NotFound(ServiceError):
    """404: the named job/trace does not exist."""


class _Conflict(ServiceError):
    """409: the request is valid but the job is not in the right state."""


def _workload_names() -> list[str]:
    from ..synth.base import registered_workloads

    return registered_workloads()


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP onto :class:`ConflictService` (one thread per request)."""

    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"

    # set by make_server(); typed here for mypy
    service: ConflictService
    quiet: bool = True

    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        if not self.quiet:
            sys.stderr.write(
                f"[{self.address_string()}] {fmt % args}\n"
            )

    # -- response plumbing ----------------------------------------------

    def _send_json(self, status: int, payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send_body(status, body, "application/json")

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _guard(self, handler) -> None:
        """Run a route handler, mapping typed errors to status codes."""
        try:
            handler()
        except _NotFound as exc:
            self._send_error(404, str(exc))
        except _Conflict as exc:
            self._send_error(409, str(exc))
        except ServiceError as exc:
            self._send_error(400, str(exc))
        except BrokenPipeError:
            pass  # client went away mid-response
        except Exception as exc:  # noqa: B902 - the 500 of last resort
            self.log_message("internal error: %r", exc)
            try:
                self._send_error(500, f"internal error: {type(exc).__name__}")
            except OSError:
                pass

    def _read_json(self) -> object:
        length = self._content_length()
        if length > (1 << 20):
            raise ServiceError("request body too large for a JSON endpoint")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}")

    def _content_length(self) -> int:
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            raise ServiceError("Content-Length header is required")
        if length < 0:
            raise ServiceError("Content-Length must be >= 0")
        return length

    # -- routing ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        self._guard(self._route_get)

    def do_POST(self) -> None:  # noqa: N802
        self._guard(self._route_post)

    def _route_get(self) -> None:
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        if parts == ["api", "health"]:
            self._send_json(200, {"ok": True, "version": __version__})
        elif parts == ["api", "stats"]:
            self._send_json(200, self.service.stats())
        elif parts == ["api", "workloads"]:
            self._send_json(200, {"workloads": _workload_names()})
        elif parts == ["api", "protocols"]:
            self._send_json(
                200, {"protocols": list(PROTOCOL_CHOICES), "kinds": list(JOB_KINDS)}
            )
        elif parts[:2] == ["api", "traces"] and len(parts) == 3:
            self._get_trace(parts[2])
        elif parts == ["api", "jobs"]:
            self._list_jobs(query)
        elif parts[:2] == ["api", "jobs"] and len(parts) == 3:
            self._get_job(parts[2], query)
        elif parts[:2] == ["api", "jobs"] and len(parts) == 4 and parts[3] == "result":
            body = self.service.result_text(parts[2]).encode("utf-8")
            self._send_body(200, body, "application/json")
        else:
            self._send_error(404, f"no such endpoint: GET {url.path}")

    def _route_post(self) -> None:
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts == ["api", "traces"]:
            self._upload_trace()
        elif parts == ["api", "jobs"]:
            spec = JobSpec.from_dict(self._read_json())
            record, deduped = self.service.submit(spec)
            self._send_json(200 if deduped else 201,
                            {"job": record, "deduped": deduped})
        else:
            self._send_error(404, f"no such endpoint: POST {url.path}")

    # -- route bodies ----------------------------------------------------

    def _upload_trace(self) -> None:
        length = self._content_length()
        if length == 0:
            raise ServiceError("empty upload: send the raw .rtb bytes")
        if length > MAX_UPLOAD_BYTES:
            self._send_error(413, f"upload exceeds {MAX_UPLOAD_BYTES} bytes")
            return

        def chunks():
            remaining = length
            while remaining > 0:
                chunk = self.rfile.read(min(CHUNK_BYTES, remaining))
                if not chunk:
                    raise ServiceError(
                        f"upload truncated: got {length - remaining} "
                        f"of {length} bytes"
                    )
                remaining -= len(chunk)
                yield chunk

        info = self.service.store.put_stream(chunks())
        self._send_json(200 if info.existed else 201, info.to_dict())

    def _get_trace(self, digest: str) -> None:
        if not self.service.store.has(digest):
            raise _NotFound(f"no such trace: {digest}")
        self._send_json(200, self.service.store.info(digest).to_dict())

    def _list_jobs(self, query: dict) -> None:
        state = None
        if "state" in query:
            try:
                state = JobState(query["state"][0].upper())
            except ValueError:
                raise ServiceError(
                    f"unknown state {query['state'][0]!r}: expected one of "
                    f"{', '.join(s.value for s in JobState)}"
                )
        limit = _int_param(query, "limit", 100, low=1, high=10_000)
        records = self.service.queue.list_jobs(state, limit=limit)
        self._send_json(200, {"jobs": [r.to_dict() for r in records]})

    def _get_job(self, job_id: str, query: dict) -> None:
        wait = _float_param(query, "wait", 0.0, low=0.0, high=MAX_WAIT_SECONDS)
        if wait > 0:
            record = self.service.queue.wait_for(job_id, wait)
        else:
            record = self.service.queue.get(job_id)
        if record is None:
            raise _NotFound(f"no such job: {job_id}")
        self._send_json(200, {"job": record.to_dict()})


def _int_param(query: dict, name: str, default: int, *, low: int, high: int) -> int:
    if name not in query:
        return default
    try:
        value = int(query[name][0])
    except ValueError:
        raise ServiceError(f"{name} must be an integer")
    if not low <= value <= high:
        raise ServiceError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def _float_param(
    query: dict, name: str, default: float, *, low: float, high: float
) -> float:
    if name not in query:
        return default
    try:
        value = float(query[name][0])
    except ValueError:
        raise ServiceError(f"{name} must be a number")
    if value != value or not low <= value <= high:
        raise ServiceError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def make_server(
    service: ConflictService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """A ready-to-serve HTTP server bound to ``service``.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``) — how the tests and the CI smoke run
    without port collisions.
    """

    class BoundHandler(ServiceHandler):
        pass

    BoundHandler.service = service
    BoundHandler.quiet = quiet
    httpd = ThreadingHTTPServer((host, port), BoundHandler)
    httpd.daemon_threads = True
    return httpd


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve the conflict-analysis API over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    parser.add_argument(
        "--data-dir",
        default="repro-service",
        help="queue DB, trace store and result cache live here "
        "(default: ./repro-service)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="in-process worker threads; 0 = front door only "
        "(default: 2)",
    )
    parser.add_argument(
        "--lease", type=float, default=30.0, metavar="SECONDS",
        help="job lease before an unheartbeated claim expires (default: 30)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts before a crashing job parks as TIMEOUT (default: 3)",
    )
    parser.add_argument(
        "--aging", type=float, default=60.0, metavar="SECONDS",
        help="a waiting job gains one priority band per this many "
        "seconds (default: 60)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-request logging"
    )
    args = parser.parse_args(argv)

    try:
        service = ConflictService(
            args.data_dir,
            workers=args.workers,
            lease_seconds=args.lease,
            max_attempts=args.max_attempts,
            aging_seconds=args.aging,
            quiet=args.quiet,
        )
    except ServiceError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    httpd = make_server(service, args.host, args.port, quiet=args.quiet)
    host, port = httpd.server_address[:2]
    print(
        f"repro serve: listening on http://{host}:{port} "
        f"(data: {service.data_dir}, workers: {args.workers})",
        file=sys.stderr,
        flush=True,
    )
    service.start()
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
        service.stop()
        print("repro serve: stopped", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
