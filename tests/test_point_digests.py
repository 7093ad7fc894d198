"""Per-point golden digests of the scalar engine's canonical rendering.

``tests/golden/point_digests.json`` holds, for every registered workload
crossed with every protocol configuration of ``test_engine_equiv``'s
matrix (4 threads, seed 2, scale 0.1; MOESI is MESI with the owned
state), the SHA-256 of ``render_result(Simulator(cfg, program).run())``.
The rendering covers every ``Stats`` counter, the network and DRAM
accounting and the full conflict log, so a digest match proves the
point's whole output is byte-identical to the commit that wrote the
file.  Unlike the suite digest, a mismatch names the one workload and
protocol that moved.

Regenerate (only when a change is *meant* to alter simulated output)::

    PYTHONPATH=src python tests/test_point_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import ProtocolKind, SystemConfig
from repro.core.results import render_result
from repro.core.simulator import Simulator
from repro.synth.suite import all_workload_names, build_workload

GOLDEN = Path(__file__).resolve().parent / "golden" / "point_digests.json"

THREADS = 4
SEED = 2
SCALE = 0.1

PROTOCOL_CFGS = {
    "mesi": SystemConfig(num_cores=THREADS, protocol=ProtocolKind.MESI),
    "moesi": SystemConfig(
        num_cores=THREADS, protocol=ProtocolKind.MESI, use_owned_state=True
    ),
    "ce": SystemConfig(num_cores=THREADS, protocol=ProtocolKind.CE),
    "ce+": SystemConfig(num_cores=THREADS, protocol=ProtocolKind.CEPLUS),
    "arc": SystemConfig(num_cores=THREADS, protocol=ProtocolKind.ARC),
}

WORKLOADS = all_workload_names()


def build(name: str):
    return build_workload(name, num_threads=THREADS, seed=SEED, scale=SCALE)


def point_digest(program, proto: str) -> str:
    text = render_result(Simulator(PROTOCOL_CFGS[proto], program).run())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def programs():
    return {name: build(name) for name in WORKLOADS}


def test_golden_covers_the_matrix(golden):
    """A workload or protocol added without regenerating the file would
    otherwise go unguarded."""
    assert sorted(golden) == sorted(WORKLOADS)
    for name in WORKLOADS:
        assert sorted(golden[name]) == sorted(PROTOCOL_CFGS), name


@pytest.mark.parametrize("proto", PROTOCOL_CFGS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_point_digest(golden, programs, name, proto):
    assert point_digest(programs[name], proto) == golden[name][proto]


def _write_golden() -> None:
    table = {}
    for name in WORKLOADS:
        program = build(name)
        table[name] = {proto: point_digest(program, proto) for proto in PROTOCOL_CFGS}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(table)} workloads x {len(PROTOCOL_CFGS)} protocols)")


if __name__ == "__main__":
    _write_golden()
