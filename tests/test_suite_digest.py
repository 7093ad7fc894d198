"""The regenerated paper suite is byte-identical to its committed digests.

``perfbench/reference.json`` records the SHA-256 of ``repro-run all``
stdout per preset and seed.  The quick preset runs here, in fresh
processes with pinned hashing and no inherited engine, sanitizer or
cache knobs, so any change to what is simulated — or to how results
render — fails the unit suite, not only the benchmark.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference.json"

#: inherited knobs that would change what the suite runs or where
_SCRUBBED = (
    "REPRO_ENGINE", "REPRO_SANITIZE", "REPRO_NO_FSYNC", "REPRO_KILLPOINTS",
    "REPRO_CACHE_DIR", "PYTHONPATH", "PYTHONHASHSEED",
)


@pytest.mark.parametrize("seed", [1, 2])
def test_quick_suite_stdout_matches_reference(seed, tmp_path):
    expected = json.loads(REFERENCE.read_text())["suite"]["quick"][str(seed)]
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED}
    env.update(
        PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path)
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.harness.run", "all",
            "--preset", "quick", "--jobs", "1", "--no-cache",
            "--seed", str(seed),
        ],
        cwd=tmp_path, env=env, capture_output=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert hashlib.sha256(proc.stdout).hexdigest() == expected
