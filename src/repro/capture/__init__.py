"""Runtime workload capture: real threaded Python programs as traces.

This package turns actual ``threading`` programs into
:class:`~repro.trace.program.Program` workloads.  Shared state goes
through traced proxies, synchronization through traced drop-ins, and a
deterministic cooperative scheduler serializes the threads so repeated
captures of a seeded program are byte-identical.  See
``docs/CAPTURE.md`` for the API, SFR inference rules, and the on-disk
``.rtb`` format captures are saved in.
"""

from ..common.errors import CaptureError
from .proxies import TracedArray, TracedStruct
from .scheduler import CooperativeScheduler
from .session import CaptureSession
from .sync import TracedBarrier, TracedCondition, TracedLock
from .workloads import (
    CAPTURE_WORKLOADS,
    capture_blackscholes,
    capture_histogram,
    capture_pipeline,
    capture_racy_counter,
    capture_workqueue,
)

__all__ = [
    "CAPTURE_WORKLOADS",
    "CaptureError",
    "CaptureSession",
    "CooperativeScheduler",
    "TracedArray",
    "TracedBarrier",
    "TracedCondition",
    "TracedLock",
    "TracedStruct",
    "capture_blackscholes",
    "capture_histogram",
    "capture_pipeline",
    "capture_racy_counter",
    "capture_workqueue",
]
