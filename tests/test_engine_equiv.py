"""Differential engine-equivalence suite.

The batch engine (``repro.core.batch``) promises *byte-identical* output
to the scalar engine — same stats, same conflict log, same network and
DRAM accounting — on every program.  This suite is the promise's
enforcement: every registered workload crossed with every protocol
(MESI, MOESI, CE, CE+, ARC), plus replay of programs read back from
multi-chunk ``.rtb`` files, sanitizer-
armed runs, and hypothesis fuzzing aimed at the classifier's boundary
conditions (private-to-shared transitions, region edges, chunk edges).

All comparisons go through :func:`~repro.core.results.render_result`,
whose canonical rendering covers every counter a run produces;
:func:`assert_identical` raises with a unified diff naming the first
divergent quantity.  It is also importable from a REPL to bisect a
divergence by hand (pair it with ``force_residue_lines`` on
:class:`~repro.core.batch.BatchSimulator`; docs/ENGINE.md).
"""

from __future__ import annotations

import difflib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ProtocolKind, SystemConfig, TraceBuilder
from repro.core.batch import BatchSimulator
from repro.core.results import render_result
from repro.core.simulator import Simulator
from repro.synth.suite import all_workload_names, build_workload
from repro.trace.binio import BinTraceWriter, load_program_bin
from repro.trace.program import Program

THREADS = 4
SCALE = 0.1

#: every protocol the paper models; MOESI is the MESI family with the
#: owned state enabled, so it gets its own config rather than a kind
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


def assert_identical(cfg, program, *, sanitize=None, context: str = "") -> str:
    """Run ``program`` under both engines on fresh simulators and assert
    byte-identical output; returns the (shared) rendering on success,
    raises ``AssertionError`` with a unified diff naming the first
    divergent quantity on failure."""
    scalar_text = render_result(Simulator(cfg, program, sanitize=sanitize).run())
    batch_text = render_result(
        BatchSimulator(cfg, program, sanitize=sanitize).run()
    )
    if scalar_text != batch_text:
        diff = "\n".join(
            difflib.unified_diff(
                scalar_text.splitlines(),
                batch_text.splitlines(),
                fromfile="scalar",
                tofile="batch",
                lineterm="",
            )
        )
        where = f" [{context}]" if context else ""
        raise AssertionError(
            f"engine divergence{where}: {program.name} on "
            f"{cfg.protocol.value}\n{diff}"
        )
    return scalar_text


@pytest.fixture(scope="module")
def programs():
    """One small build per workload, shared across the protocol matrix
    (traces are immutable; both engines read, never write, them)."""
    return {
        name: build_workload(name, num_threads=THREADS, seed=2, scale=SCALE)
        for name in WORKLOADS
    }


# --------------------------------------------------------------------------
# the full matrix: every workload x every protocol
# --------------------------------------------------------------------------


@pytest.mark.parametrize("proto", PROTOCOL_CFGS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_protocol_matrix(programs, name, proto):
    assert_identical(PROTOCOL_CFGS[proto], programs[name], context=proto)


@pytest.mark.parametrize("proto", PROTOCOL_CFGS)
@pytest.mark.parametrize(
    "name", ["lock-counter", "racy-writers", "capture-racy-counter"]
)
def test_sanitize_armed_batch(programs, name, proto):
    """``--sanitize`` must hold on the batch engine too: the bulk path
    re-runs the line-scoped invariant checkers over every line a run
    touches, and the armed run must still be byte-identical."""
    assert_identical(
        PROTOCOL_CFGS[proto], programs[name], sanitize=True, context=f"{proto}+san"
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_streamed_rtb_replay(tmp_path, programs, name):
    """Batch on a program read back from a chunk-streamed ``.rtb``
    (tiny chunks, so every thread spans many that the loader joins)
    must match scalar on the in-memory program."""
    prog = programs[name]
    path = tmp_path / f"{name}.rtb"
    with BinTraceWriter(
        path, prog.num_threads, name=prog.name, chunk_events=96
    ) as w:
        for tid, trace in enumerate(prog.traces):
            w.append_trace(tid, trace)
    cfg = PROTOCOL_CFGS["ce+"]
    scalar = render_result(Simulator(cfg, prog).run())
    batch = render_result(BatchSimulator(cfg, load_program_bin(path)).run())
    assert batch == scalar


def test_moesi_actually_uses_owned_state(programs):
    """Guard the matrix itself: the MOESI config must not silently be
    plain MESI, or the moesi column proves nothing."""
    assert PROTOCOL_CFGS["moesi"].use_owned_state
    assert not PROTOCOL_CFGS["mesi"].use_owned_state


# --------------------------------------------------------------------------
# hypothesis fuzzing of the classifier's boundary conditions
# --------------------------------------------------------------------------

#: a deliberately tiny address pool so random programs constantly hit
#: the interesting boundaries: lines that flip private -> shared, lines
#: read by all but written by one, and false sharing within a line
_LINES = [0x1000, 0x1040, 0x1080, 0x10C0, 0x2000, 0x2040]

_op = st.tuples(
    st.integers(0, len(_LINES) - 1),  # line index
    st.integers(0, 56),  # offset in line
    st.sampled_from([1, 2, 4, 8]),  # access size
    st.booleans(),  # is write
    st.integers(0, 3),  # gap cycles
)

_sync = st.sampled_from(["none", "lock"])


def _fuzz_program(thread_ops, syncs):
    """Build a 2-thread program from drawn op lists, wrapping some
    accesses in acquire/release pairs so region edges land mid-stream
    (barriers stay out of the fuzz: unmatched counts deadlock)."""
    traces = []
    for tid, ops in enumerate(thread_ops):
        b = TraceBuilder()
        for i, (li, off, size, iswr, gap) in enumerate(ops):
            kind = syncs[(tid * 7 + i) % len(syncs)] if syncs else "none"
            if kind == "lock":
                b.acquire(1)
            addr = _LINES[li] + min(off, 64 - size)
            if iswr:
                b.write(addr, size=size, gap=gap)
            else:
                b.read(addr, size=size, gap=gap)
            if kind == "lock":
                b.release(1)
        traces.append(b.build())
    return Program(traces, name="fuzz")


@settings(max_examples=40, deadline=None)
@given(
    ops0=st.lists(_op, min_size=1, max_size=60),
    ops1=st.lists(_op, min_size=1, max_size=60),
    syncs=st.lists(_sync, min_size=1, max_size=4),
)
def test_fuzz_classifier_boundaries(ops0, ops1, syncs):
    """Random 2-thread interleavings over a tiny line pool: every class
    transition the classifier can produce (private each way, read-only
    shared, contended, false sharing) shows up here, with region edges
    scattered through the runs."""
    prog = _fuzz_program([ops0, ops1], syncs)
    for proto in ("mesi", "ce+", "arc"):
        cfg = PROTOCOL_CFGS[proto].with_cores(2)
        assert_identical(cfg, prog, context=f"fuzz:{proto}")


@settings(max_examples=15, deadline=None)
@given(
    ops0=st.lists(_op, min_size=8, max_size=80),
    ops1=st.lists(_op, min_size=8, max_size=80),
    chunk=st.integers(4, 48),
)
def test_fuzz_chunk_edges(tmp_path_factory, ops0, ops1, chunk):
    """The same fuzzed programs written through ``.rtb`` with a drawn
    (tiny) chunk size and read back: the loader must rejoin chunks cut
    at any alignment into the exact program batch and scalar agree on."""
    prog = _fuzz_program([ops0, ops1], [])
    path = tmp_path_factory.mktemp("rtb") / "fuzz.rtb"
    with BinTraceWriter(path, 2, name="fuzz", chunk_events=chunk) as w:
        for tid, trace in enumerate(prog.traces):
            w.append_trace(tid, trace)
    cfg = PROTOCOL_CFGS["ce+"].with_cores(2)
    scalar = render_result(Simulator(cfg, prog).run())
    batch = render_result(BatchSimulator(cfg, load_program_bin(path)).run())
    assert batch == scalar


def test_private_to_shared_transition_exact():
    """Directed version of the nastiest boundary: thread 0 hammers a
    line in what looks like a private phase, then thread 1 starts
    touching it.  Whole-program classification calls it contended (or
    read-only shared), so even the early "private-looking" accesses must
    flow through the protocol model — equivalence catches any engine
    that fast-paths the prefix."""
    line = 0x4000
    b0 = TraceBuilder()
    for i in range(200):
        b0.write(line + (i % 8) * 8, size=8, gap=1)
    b0.barrier(0)
    b0.read(line, size=8)
    b1 = TraceBuilder()
    for i in range(50):
        b1.read(0x8000 + (i % 4) * 8, size=8, gap=1)
    b1.barrier(0)
    b1.read(line + 8, size=8)
    prog = Program([b0.build(), b1.build()], name="priv-to-shared")
    for proto, cfg in PROTOCOL_CFGS.items():
        assert_identical(cfg.with_cores(2), prog, context=f"p2s:{proto}")


def test_region_edge_mid_run():
    """Region boundaries (release/acquire) interleaved with long
    fast-path-eligible stretches: the sync events are residue and must
    split the bulk runs without perturbing region bookkeeping."""
    b0 = TraceBuilder()
    b1 = TraceBuilder()
    for b, base in ((b0, 0x10000), (b1, 0x20000)):
        for rep in range(6):
            for i in range(40):
                b.write(base + (i % 16) * 8, size=8, gap=1)
            b.acquire(9)
            b.read(0x30000, size=8)
            b.release(9)
    prog = Program([b0.build(), b1.build()], name="region-edges")
    for proto, cfg in PROTOCOL_CFGS.items():
        assert_identical(cfg.with_cores(2), prog, context=f"edges:{proto}")


def test_render_covers_all_stats_fields():
    """The canonical rendering must mention every Stats field — if a
    counter is added and not rendered, the whole suite silently stops
    proving anything about it."""
    from repro.core.stats import Stats

    prog = build_workload("lock-counter", num_threads=2, seed=1, scale=0.05)
    text = render_result(Simulator(SystemConfig(num_cores=2), prog).run())
    for name in Stats.__dataclass_fields__:
        if name == "conflicts":
            assert "conflicts:" in text
        else:
            assert f"stats.{name}:" in text, name


def test_racy_workload_conflicts_render_identically(programs):
    """Conflict *records* (not just counts) must match: the rendering
    includes every field of every ConflictRecord in order."""
    for proto in ("ce", "ce+", "arc"):
        text = assert_identical(
            PROTOCOL_CFGS[proto], programs["racy-writers"], context=proto
        )
        assert "conflict[0]:" in text  # racy workload really does conflict


def test_forced_residue_is_behavior_preserving(programs):
    """The divergence-debugging knob: demoting fast-path lines to the
    residue tier must never change results (docs/ENGINE.md bisection
    workflow depends on this)."""
    prog = programs["stencil-ocean"]
    cfg = PROTOCOL_CFGS["ce+"]
    baseline = render_result(BatchSimulator(cfg, prog).run())
    sim = BatchSimulator(cfg, prog)
    lines = sim.classification.lines
    forced = [int(a) for a in lines[:: max(1, len(lines) // 16)]]
    demoted = BatchSimulator(cfg, prog, force_residue_lines=forced)
    assert render_result(demoted.run()) == baseline
    everything = BatchSimulator(
        cfg, prog, force_residue_lines=[int(a) for a in lines]
    )
    assert render_result(everything.run()) == baseline


def test_classifier_codes_vectorized_consistency(programs):
    """codes_for must agree with code_of on every line, plus on lines
    the program never touches (both say CONTENDED)."""
    from repro.core.batch import CONTENDED, classify_program

    prog = programs["false-sharing"]
    cls = classify_program(prog, 64)
    probe = np.concatenate(
        [cls.lines, np.asarray([0xDEAD000, 0xBEEF0040], dtype=np.uint64)]
    )
    vec = cls.codes_for(probe)
    for line, code in zip(probe.tolist(), vec.tolist()):
        assert cls.code_of(int(line)) == code
    assert cls.code_of(0xDEAD000) == CONTENDED
