"""``repro client``: the stdlib HTTP client for the analysis service.

:class:`ServiceClient` is a thin, typed wrapper over
:mod:`http.client` — chosen over ``urllib`` because it streams request
bodies from a file object, which is what lets ``.rtb`` uploads run in
O(chunk) memory against the server's streaming ingest.

The CLI's ``run-local`` subcommand is the service's ground truth: it
executes the *same* :func:`~repro.service.jobs.execute_job` path the
workers run and prints the *same*
:func:`~repro.service.jobs.render_payload` bytes the server serves, so

    repro client result <id>  ==  repro client run-local <same spec>

byte for byte — the equivalence the CI smoke checks with ``cmp``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import sys
import time
from pathlib import Path
from urllib.parse import urlsplit

from ..common.errors import ReproError, ServiceError
from .jobs import execute_job, render_payload
from .models import JobRecord, JobSpec, JobState, TraceInfo

#: where the CLI looks for the server when --url is not given
URL_ENV = "REPRO_SERVICE_URL"
DEFAULT_URL = "http://127.0.0.1:8787"


class ServiceHTTPError(ServiceError):
    """A structured error response from the service."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """Typed access to every ``repro serve`` endpoint."""

    def __init__(self, base_url: str = DEFAULT_URL, *, timeout: float = 120.0):
        url = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if url.scheme != "http" or not url.hostname:
            raise ServiceError(
                f"base url must be http://host:port, got {base_url!r}"
            )
        self.host = url.hostname
        self.port = url.port or 80
        self.timeout = timeout

    # -- transport -------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        *,
        body=None,
        headers: dict | None = None,
        raw: bool = False,
    ):
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            data = response.read()
        except (ConnectionError, OSError) as exc:
            raise ServiceError(
                f"cannot reach repro serve at "
                f"http://{self.host}:{self.port}: {exc}"
            ) from None
        finally:
            conn.close()
        if response.status >= 400:
            try:
                message = json.loads(data.decode("utf-8"))["error"]
            except (ValueError, KeyError, UnicodeDecodeError):
                message = data.decode("utf-8", "replace").strip() or "no detail"
            raise ServiceHTTPError(response.status, message)
        if raw:
            return data
        try:
            return json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceError(f"malformed response from server: {exc}")

    def _post_json(self, path: str, payload: dict):
        body = json.dumps(payload).encode("utf-8")
        return self._request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json",
                     "Content-Length": str(len(body))},
        )

    # -- endpoints -------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/api/health")

    def stats(self) -> dict:
        return self._request("GET", "/api/stats")

    def workloads(self) -> list[str]:
        return self._request("GET", "/api/workloads")["workloads"]

    def protocols(self) -> list[str]:
        return self._request("GET", "/api/protocols")["protocols"]

    def upload_trace(self, path: str | Path) -> TraceInfo:
        """Stream a local ``.rtb`` to the store; idempotent by content."""
        path = Path(path)
        size = path.stat().st_size
        with open(path, "rb") as fh:
            data = self._request(
                "POST", "/api/traces", body=fh,
                headers={"Content-Type": "application/octet-stream",
                         "Content-Length": str(size)},
            )
        return TraceInfo.from_dict(data)

    def trace_info(self, digest: str) -> TraceInfo:
        return TraceInfo.from_dict(self._request("GET", f"/api/traces/{digest}"))

    def submit(self, spec: JobSpec) -> tuple[JobRecord, bool]:
        data = self._post_json("/api/jobs", spec.to_dict())
        return JobRecord.from_dict(data["job"]), bool(data["deduped"])

    def job(self, job_id: str, *, wait: float = 0.0) -> JobRecord:
        path = f"/api/jobs/{job_id}"
        if wait > 0:
            path += f"?wait={min(wait, 60.0):g}"
        return JobRecord.from_dict(self._request("GET", path)["job"])

    def list_jobs(self, state: str | None = None, limit: int = 100) -> list[JobRecord]:
        path = f"/api/jobs?limit={limit}"
        if state:
            path += f"&state={state}"
        return [
            JobRecord.from_dict(j)
            for j in self._request("GET", path)["jobs"]
        ]

    def wait(self, job_id: str, timeout: float = 600.0) -> JobRecord:
        """Long-poll until terminal; raises on timeout, not on FAILED."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"job {job_id[:12]} still not terminal after {timeout:g}s"
                )
            record = self.job(job_id, wait=min(remaining, 30.0))
            if record.state.terminal:
                return record

    def result_bytes(self, job_id: str) -> bytes:
        """The canonical result payload, exactly as the worker rendered it."""
        return self._request("GET", f"/api/jobs/{job_id}/result", raw=True)

    def result(self, job_id: str) -> dict:
        return json.loads(self.result_bytes(job_id).decode("utf-8"))

    def run(self, spec: JobSpec, *, timeout: float = 600.0) -> bytes:
        """Submit, wait, fetch: the one-call convenience path."""
        record, _ = self.submit(spec)
        final = self.wait(record.id, timeout)
        if final.state is not JobState.DONE:
            raise ServiceError(
                f"job {record.id[:12]} ended {final.state.value}: "
                f"{final.error or 'no detail'}"
            )
        return self.result_bytes(record.id)


# -- CLI ---------------------------------------------------------------------


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", help="registered synthetic workload name")
    target.add_argument("--trace", help="digest of an uploaded trace")
    target.add_argument(
        "--trace-file", metavar="PATH",
        help="local .rtb: uploaded first (run-local ingests it directly)",
    )
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--cores", type=int, default=None, dest="num_cores")
    parser.add_argument(
        "--protocols", default=None,
        help="comma-separated (compare default: mesi,moesi,ce,ce+,arc)",
    )
    parser.add_argument("--engine", choices=("scalar", "batch"), default=None)
    parser.add_argument("--sanitize", action="store_true")
    parser.add_argument("--priority", type=int, default=None, metavar="0-9")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="per-job wall-clock budget enforced by the worker")
    parser.add_argument("--retries", type=int, default=0)


def _spec_from_args(args: argparse.Namespace, kind: str, trace: str | None) -> JobSpec:
    protocols: tuple[str, ...] = ()
    if args.protocols:
        protocols = tuple(p for p in args.protocols.split(",") if p)
    elif kind == "simulate":
        protocols = ("mesi",)
    return JobSpec(
        kind=kind,
        workload=args.workload,
        trace=trace,
        threads=args.threads,
        seed=args.seed,
        scale=args.scale,
        num_cores=args.num_cores,
        protocols=protocols,
        engine=args.engine,
        sanitize=args.sanitize,
        priority=args.priority,
        timeout=args.timeout,
        retries=args.retries,
    )


def _resolve_trace(client: ServiceClient, args: argparse.Namespace) -> str | None:
    if args.trace is not None:
        return args.trace
    if getattr(args, "trace_file", None):
        return client.upload_trace(args.trace_file).digest
    return None


def _print_json(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_submit(client: ServiceClient, args: argparse.Namespace) -> int:
    spec = _spec_from_args(args, args.kind, _resolve_trace(client, args))
    if args.wait:
        sys.stdout.write(client.run(spec, timeout=args.wait).decode("utf-8"))
        return 0
    record, deduped = client.submit(spec)
    _print_json({"job": record.to_dict(), "deduped": deduped})
    return 0


def _cmd_run_local(args: argparse.Namespace) -> int:
    trace = args.trace
    store = None
    if getattr(args, "trace_file", None):
        import tempfile

        from .tracestore import TraceStore

        tmp = tempfile.mkdtemp(prefix="repro-run-local-")
        store = TraceStore(tmp)
        trace = store.put_file(args.trace_file).digest
    elif trace is not None:
        from .tracestore import TraceStore

        store = TraceStore(args.store)
    spec = _spec_from_args(args, args.kind, trace)
    payload = execute_job(spec, store=store)
    sys.stdout.write(render_payload(payload))
    return 0


def _cmd_status(client: ServiceClient, args: argparse.Namespace) -> int:
    record = client.job(args.job, wait=args.wait or 0.0)
    _print_json({"job": record.to_dict()})
    return 0


def _cmd_result(client: ServiceClient, args: argparse.Namespace) -> int:
    sys.stdout.write(client.result_bytes(args.job).decode("utf-8"))
    return 0


def _cmd_list(client: ServiceClient, args: argparse.Namespace) -> int:
    records = client.list_jobs(args.state, limit=args.limit)
    _print_json({
        "jobs": [
            {
                "id": r.id, "state": r.state.value, "kind": r.spec.kind,
                "priority": r.priority, "attempts": r.attempts,
                "error": r.error,
            }
            for r in records
        ]
    })
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro client",
        description="Talk to a running repro serve instance.",
    )
    parser.add_argument(
        "--url", default=os.environ.get(URL_ENV, DEFAULT_URL),
        help=f"server base url (default: ${URL_ENV} or {DEFAULT_URL})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("health", help="liveness + server version")
    sub.add_parser("stats", help="queue depth, cache and trace counters")
    sub.add_parser("workloads", help="list registered synthetic workloads")
    sub.add_parser("protocols", help="list protocol names jobs may request")

    p = sub.add_parser("upload", help="upload a .rtb into the trace store")
    p.add_argument("path")

    for kind in ("analyze", "simulate", "compare"):
        p = sub.add_parser(kind, help=f"submit a {kind} job")
        p.set_defaults(kind=kind)
        _add_spec_args(p)
        p.add_argument(
            "--wait", type=float, default=None, metavar="SECONDS",
            help="block until done and print the result payload",
        )

    p = sub.add_parser(
        "run-local",
        help="execute a spec in-process and print the canonical payload "
        "(the byte-for-byte reference for service results)",
    )
    p.set_defaults(kind=None)
    p.add_argument("kind", choices=("analyze", "simulate", "compare"))
    _add_spec_args(p)
    p.add_argument(
        "--store", default="repro-service/traces",
        help="trace store root for --trace digests (default: "
        "repro-service/traces)",
    )

    p = sub.add_parser("status", help="show one job (optionally long-poll)")
    p.add_argument("job")
    p.add_argument("--wait", type=float, default=None, metavar="SECONDS")

    p = sub.add_parser("result", help="print a DONE job's result payload")
    p.add_argument("job")

    p = sub.add_parser("list", help="list recent jobs")
    p.add_argument("--state", default=None,
                   choices=[s.value for s in JobState])
    p.add_argument("--limit", type=int, default=20)

    args = parser.parse_args(argv)
    try:
        if args.command == "run-local":
            return _cmd_run_local(args)
        client = ServiceClient(args.url)
        if args.command == "health":
            _print_json(client.health())
        elif args.command == "stats":
            _print_json(client.stats())
        elif args.command == "workloads":
            _print_json({"workloads": client.workloads()})
        elif args.command == "protocols":
            _print_json({"protocols": client.protocols()})
        elif args.command == "upload":
            _print_json(client.upload_trace(args.path).to_dict())
        elif args.command in ("analyze", "simulate", "compare"):
            return _cmd_submit(client, args)
        elif args.command == "status":
            return _cmd_status(client, args)
        elif args.command == "result":
            return _cmd_result(client, args)
        elif args.command == "list":
            return _cmd_list(client, args)
        return 0
    except ReproError as exc:
        print(f"repro client: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro client: {exc}", file=sys.stderr)
        return 2

