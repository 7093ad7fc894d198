"""Regenerate the committed fsck golden fixtures.

The ``cachedir/`` tree is a miniature result-cache directory with one
deliberately planted instance of every *repairable* defect class
``repro fsck`` knows:

* ``checkpoint.rjl`` — two valid frames plus a torn half-frame tail
  (crash mid-append);
* ``ab/<key>.pkl`` — a cache entry with no checksum line (torn-write
  garbage a pre-durable harness could have left);
* ``ab/.tmp-w0rker`` — orphaned atomic-replace residue (crash between
  temp write and rename);
* ``torn.rtb`` — a trace truncated mid-chunk (crash mid-capture).

CI copies the tree aside and asserts ``repro fsck`` finds exactly these
defects (exit 4), repairs them all (exit 0), and that ``--check`` never
modifies a byte.  Everything here is deterministic; rerun with::

    PYTHONPATH=src python tests/fixtures/fsck/regen.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from repro.common import durable
from repro.trace import Program, TraceBuilder
from repro.trace.binio import save_program_bin

FIXTURE_ROOT = Path(__file__).parent / "cachedir"


def make_torn_journal(path: Path) -> None:
    records = [
        {"key": "a" * 64, "status": "miss", "workload": "lock-counter",
         "protocol": "mesi", "seconds": 0.25, "attempts": 1},
        {"key": "b" * 64, "status": "hit", "workload": "lock-counter",
         "protocol": "ce", "seconds": 0.125, "attempts": 1},
    ]
    frames = [
        durable.encode_frame(json.dumps(r, sort_keys=True).encode("utf-8"))
        for r in records
    ]
    torn = durable.encode_frame(b'{"key": "never finished')
    path.write_bytes(  # detlint: ok - fixture generator, run offline
        b"".join(frames) + torn[: len(torn) // 2]
    )


def make_corrupt_entry(shard: Path) -> None:
    shard.mkdir(parents=True, exist_ok=True)
    entry = shard / ("ab" + "c" * 62 + ".pkl")
    # no checksum line: a single line of garbage
    entry.write_bytes(b"torn garbage, not checksum+payload")  # detlint: ok


def make_stale_tmp(shard: Path) -> None:
    shard.mkdir(parents=True, exist_ok=True)
    (shard / ".tmp-w0rker").write_bytes(  # detlint: ok - fixture generator
        b"half-written entry bytes"
    )


def make_torn_trace(path: Path) -> None:
    builder = TraceBuilder()
    for i in range(120):
        builder.write(i * 8, gap=1)
    other = TraceBuilder().read(4096).barrier(0).write(8192).build()
    program = Program([builder.build(), other], name="fsck-fixture")
    save_program_bin(program, path, chunk_events=16)
    blob = path.read_bytes()
    path.write_bytes(blob[: int(len(blob) * 0.6)])  # detlint: ok - fixture


def main() -> int:
    if FIXTURE_ROOT.exists():
        shutil.rmtree(FIXTURE_ROOT)
    FIXTURE_ROOT.mkdir(parents=True)
    make_torn_journal(FIXTURE_ROOT / "checkpoint.rjl")
    make_corrupt_entry(FIXTURE_ROOT / "ab")
    make_stale_tmp(FIXTURE_ROOT / "ab")
    make_torn_trace(FIXTURE_ROOT / "torn.rtb")
    print(f"regenerated {FIXTURE_ROOT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
