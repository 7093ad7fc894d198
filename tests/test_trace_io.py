"""Round-trip tests for program (de)serialization."""

import json

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.trace import Program, TraceBuilder, load_program, save_program
from repro.trace.binio import MAGIC, _encode_varint_scalar, _read_varint_scalar
from repro.synth import build_workload


def _rewrite_meta(path, mutate):
    """Rewrite the header metadata of the ``.rtb`` file at ``path``."""
    with open(path, "rb") as fh:
        fh.read(len(MAGIC) + 1)
        meta = json.loads(fh.read(_read_varint_scalar(fh)))
        rest = fh.read()
    mutate(meta)
    raw = json.dumps(meta).encode()
    data = path.read_bytes()[: len(MAGIC) + 1]
    path.write_bytes(data + _encode_varint_scalar(len(raw)) + raw + rest)


class TestRoundTrip:
    def test_small_program(self, tmp_path):
        t0 = TraceBuilder().read(0).acquire(1).write(8).release(1).build()
        t1 = TraceBuilder().barrier(2).read(64).barrier(2).build()
        t2 = TraceBuilder().barrier(2).barrier(2).build()
        original = Program([t0, t1, t2], name="roundtrip")
        path = tmp_path / "prog.rtb"
        save_program(original, path)
        loaded = load_program(path)
        assert loaded.name == original.name
        assert loaded.num_threads == 3
        assert loaded.barrier_participants == {2: frozenset({1, 2})}
        for a, b in zip(original.traces, loaded.traces):
            assert a == b

    def test_generated_workload(self, tmp_path):
        original = build_workload("lock-counter", num_threads=4, seed=3, scale=0.05)
        path = tmp_path / "wl.rtb"
        save_program(original, path)
        loaded = load_program(path)
        assert loaded.num_events() == original.num_events()
        assert all(a == b for a, b in zip(original.traces, loaded.traces))

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, data=np.arange(4))
        with pytest.raises(TraceError, match="not a repro trace"):
            load_program(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.rtb"
        save_program(Program([TraceBuilder().read(0).build()], name="f"), path)
        data = bytearray(path.read_bytes())
        data[len(MAGIC)] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError, match="version 99.*newer release"):
            load_program(path)

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "unversioned.rtb"
        save_program(Program([TraceBuilder().read(0).build()], name="u"), path)
        _rewrite_meta(path, lambda meta: meta.pop("version"))
        with pytest.raises(TraceError, match="version mismatch"):
            load_program(path)

    def test_missing_thread_array(self, tmp_path):
        path = tmp_path / "p.rtb"
        save_program(Program([TraceBuilder().read(0).build()], name="x"), path)
        # corrupt: a header claiming two threads over one thread's chunks
        _rewrite_meta(path, lambda meta: meta.update(num_threads=2))
        with pytest.raises(TraceError, match="counts disagree"):
            load_program(path)
