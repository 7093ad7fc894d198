"""Shared plumbing: checkout paths, the hermetic environment, timed
subprocesses, percentiles and the run stamp."""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: the checkout the benchmark measures: the directory holding ``perfbench/``
ROOT = HERE.parent
SRC = ROOT / "src"
#: every file a run writes lives under here (ignored by git)
WORK = ROOT / ".perfbench"

#: variables that change what or how the program runs; never inherited
SCRUBBED_ENV = (
    "REPRO_ENGINE", "REPRO_SANITIZE", "REPRO_NO_FSYNC", "REPRO_KILLPOINTS",
    "REPRO_CACHE_DIR", "REPRO_SERVICE_URL", "PYTHONPATH", "PYTHONSTARTUP",
    "PYTHONHASHSEED",
)


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken set-up)."""


def check_checkout() -> None:
    if not (SRC / "repro" / "harness" / "run.py").is_file():
        raise BenchError(
            f"no repro sources under {SRC}: run from a full checkout"
        )


def scratch_dir(prefix: str, base: Path | None = None) -> Path:
    """A fresh private directory under the checkout's work area."""
    base = base or WORK / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=base))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def hermetic_env(tmp: Path) -> dict:
    """The environment of every measured process.

    Inherited knobs that select an engine, arm checks or move the cache
    are scrubbed, hashing is pinned, the checkout's sources come first on
    the import path, and temporary files stay inside the checkout.
    """
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = str(tmp)
    return env


def run_timed(
    cmd: list[str], env: dict, *, stdout=None, stderr=None, timeout: float = 170.0
) -> tuple[int, float, float]:
    """Run ``cmd`` to completion: (exit code, wall seconds, peak RSS MB).

    ``os.wait4`` gives the child's own resource usage, so the peak RSS
    is that process's high-water mark, not the maximum over all children.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=stdout, stderr=stderr,
        stdin=subprocess.DEVNULL,
    )
    deadline = start + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def stop_process(proc: subprocess.Popen, timeout: float = 20.0) -> float:
    """SIGINT, wait, SIGKILL if needed; returns the peak RSS in MB."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(min(rank, len(ordered))) - 1]


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    """Content hash of the checkout's ``src/`` (the checkout has no git)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp() -> dict:
    """Where and on what a run was measured."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    nproc = os.cpu_count() or 1
    load = os.getloadavg()
    return {
        "source_sha256": source_digest(),
        "nproc": nproc,
        "loadavg": [round(x, 2) for x in load],
        "loaded": load[0] > nproc,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)
