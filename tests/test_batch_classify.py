"""Property suite for the batch engine's line classifier.

The classifier (``repro.core.batch.classify_program``) is the batch
engine's load-bearing wall: a line wrongly called private or read-only
shared would let the fast path skip protocol work that matters.  These
properties pin its semantics against an independent pure-Python oracle
over hypothesis-generated programs:

* the classification is a *partition* — every accessed line gets exactly
  one code, and every access event is either a fast-path candidate or
  residue, never both, never neither;
* ``PRIVATE(t)`` really means a single toucher, ``RO_SHARED`` really
  means multi-thread and never written;
* replaying with every line demoted to the residue tier equals the full
  scalar replay (the fast path is an optimization, not a semantics).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ProtocolKind, SystemConfig, TraceBuilder
from repro.core.batch import (
    CONTENDED,
    RO_SHARED,
    BatchSimulator,
    classify_program,
)
from repro.core.results import render_result
from repro.core.simulator import Simulator
from repro.trace.program import Program

LINE = 64

#: small pool so lines get revisited across threads
_LINES = [0x1000 + i * LINE for i in range(8)]

_op = st.tuples(
    st.integers(0, len(_LINES) - 1),
    st.integers(0, 7),  # word offset
    st.booleans(),  # is write
)


def _build(thread_ops):
    traces = []
    for ops in thread_ops:
        b = TraceBuilder()
        for li, word, iswr in ops:
            addr = _LINES[li] + word * 8
            if iswr:
                b.write(addr, size=8)
            else:
                b.read(addr, size=8)
        traces.append(b.build())
    return Program(traces, name="classify-fuzz")


def _oracle(thread_ops):
    """Independent per-line ground truth: sets of touching threads and
    an ever-written flag, computed the obvious scalar way."""
    touched: dict[int, set[int]] = {}
    written: set[int] = set()
    for tid, ops in enumerate(thread_ops):
        for li, _word, iswr in ops:
            line = _LINES[li]
            touched.setdefault(line, set()).add(tid)
            if iswr:
                written.add(line)
    return touched, written


@settings(max_examples=60, deadline=None)
@given(
    thread_ops=st.lists(
        st.lists(_op, min_size=0, max_size=30), min_size=1, max_size=4
    )
)
def test_classification_matches_oracle(thread_ops):
    prog = _build(thread_ops)
    cls = classify_program(prog, LINE)
    touched, written = _oracle(thread_ops)

    # exactly the accessed lines, each once, sorted
    assert cls.lines.tolist() == sorted(touched)
    assert len(cls.lines) == len(cls.codes)

    for line, threads in touched.items():
        code = cls.code_of(line)
        if len(threads) == 1:
            (only,) = threads
            assert code == only, f"single-toucher line {line:#x} not private"
        elif line in written:
            assert code == CONTENDED
        else:
            assert code == RO_SHARED

    counts = cls.counts()
    assert sum(counts.values()) == len(cls.lines)
    assert counts["private"] == sum(1 for t in touched.values() if len(t) == 1)


@settings(max_examples=60, deadline=None)
@given(
    thread_ops=st.lists(
        st.lists(_op, min_size=1, max_size=30), min_size=2, max_size=3
    )
)
def test_event_partition_fast_vs_residue(thread_ops):
    """Every access event lands in exactly one tier.  Recomputed from
    the oracle, not from the classifier, so a code that is wrong in a
    way the per-event rule happens to tolerate still fails here."""
    prog = _build(thread_ops)
    cls = classify_program(prog, LINE)
    touched, written = _oracle(thread_ops)
    for tid, ops in enumerate(thread_ops):
        for li, _word, iswr in ops:
            line = _LINES[li]
            code = cls.code_of(line)
            fast = (code == tid) or (not iswr and code == RO_SHARED)
            threads = touched[line]
            oracle_fast = (threads == {tid}) or (
                not iswr and len(threads) > 1 and line not in written
            )
            assert fast == oracle_fast, (
                f"tier mismatch: line {line:#x} tid {tid} "
                f"write={iswr} code={code}"
            )


@settings(max_examples=25, deadline=None)
@given(
    thread_ops=st.lists(
        st.lists(_op, min_size=1, max_size=40), min_size=2, max_size=3
    ),
    proto=st.sampled_from([ProtocolKind.MESI, ProtocolKind.CEPLUS, ProtocolKind.ARC]),
)
def test_residue_only_replay_equals_scalar(thread_ops, proto):
    """Demote *every* line to the residue tier: the batch engine then
    degenerates to the scalar engine event for event, so the rendering
    must equal a genuine scalar run — proving the residue tier alone is
    the exact protocol model, with no fast-path state leaking in."""
    prog = _build(thread_ops)
    cores = 1 << (len(thread_ops) - 1).bit_length()  # mesh wants a power of two
    cfg = SystemConfig(num_cores=max(cores, 2), protocol=proto)
    scalar = render_result(Simulator(cfg, prog).run())
    all_lines = [int(a) for a in classify_program(prog, LINE).lines]
    demoted = BatchSimulator(cfg, prog, force_residue_lines=all_lines)
    assert render_result(demoted.run()) == scalar
    # and the normal batch run matches both
    assert render_result(BatchSimulator(cfg, prog).run()) == scalar


def test_forced_lines_marked_ineligible():
    """``force_residue_lines`` must reach the window eligibility mask:
    with every line forced, no access position may remain fast-path
    eligible."""
    ops = [[(i % 4, i % 8, i % 3 == 0) for i in range(64)] for _ in range(2)]
    prog = _build(ops)
    cfg = SystemConfig(num_cores=2)
    all_lines = [int(a) for a in classify_program(prog, LINE).lines]
    sim = BatchSimulator(cfg, prog, force_residue_lines=all_lines)
    win = sim._build_window(0)
    assert list(win.bad) == list(range(len(prog.traces[0])))


def test_empty_program_classification():
    b = TraceBuilder()
    b.barrier(0)
    prog = Program([b.build()], name="sync-only")
    cls = classify_program(prog, LINE)
    assert len(cls.lines) == 0
    assert cls.code_of(0x1000) == CONTENDED
    assert cls.codes_for(np.asarray([0x1000], dtype=np.uint64)).tolist() == [
        CONTENDED
    ]
