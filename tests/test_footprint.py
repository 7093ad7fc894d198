"""Per-event memory of the engines' trace data.

Both engines hold per-event columns for the whole run, so their size
scales with trace length (and with ``--jobs``: every worker holds its
own copy).  The bounds sit just above the measured footprint of the
bench suite's largest program; per-event Python ints (about 76 and 115
bytes per event) fail them.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.common.config import SystemConfig
from repro.core.batch import BatchSimulator
from repro.core.simulator import Simulator
from repro.synth.base import generate
from repro.trace.events import EVENT_DTYPE

#: bytes per event of building a Simulator (five columns + the machine)
SIMULATOR_BYTES_PER_EVENT = 28
#: bytes per event of every core's batch window
WINDOW_BYTES_PER_EVENT = 48


@pytest.fixture(scope="module")
def program():
    return generate("migratory-token", num_threads=16, seed=1, scale=0.15)


def _traced_bytes(build):
    """Bytes still allocated after ``build()`` returns, and its result."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, kept
    finally:
        tracemalloc.stop()


def test_columns_keep_the_event_dtype_width(program):
    trace = program.traces[0]
    columns = trace.columns()
    for name, column in zip(EVENT_DTYPE.names, columns):
        assert column.itemsize == EVENT_DTYPE[name].itemsize
        assert np.array_equal(np.asarray(column), trace.events[name])


def test_simulator_bytes_per_event(program):
    cfg = SystemConfig(num_cores=16)
    size, _sim = _traced_bytes(lambda: Simulator(cfg, program))
    per_event = size / program.num_events()
    assert per_event < SIMULATOR_BYTES_PER_EVENT, f"{per_event:.1f} B/event"


def test_batch_window_bytes_per_event(program):
    sim = BatchSimulator(SystemConfig(num_cores=16), program)
    size, _windows = _traced_bytes(
        lambda: [sim._build_window(core) for core in range(program.num_threads)]
    )
    per_event = size / program.num_events()
    assert per_event < WINDOW_BYTES_PER_EVENT, f"{per_event:.1f} B/event"
