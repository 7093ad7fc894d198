"""Registry entries for the captured real-program workloads.

Unlike the synthetic generators in this package, these workloads are
not assembled from sampled event blocks — each build *runs* the actual
multithreaded Python program under :mod:`repro.capture` and returns the
recorded trace.  Registration here makes them first-class workloads:
they build through :func:`repro.synth.base.generate`, flow through the
executor and its result cache (a :class:`WorkloadSpec` is just a
(name, params) recipe, so fork workers re-capture deterministically),
and show up in ``repro run``, ``repro analyze`` and ``repro inspect``
by name.

Captures are deterministic in (name, num_threads, seed, scale): the
session serializes threads under a seeded cooperative scheduler, so a
re-capture in a worker process is byte-identical to one in the parent.
"""

from __future__ import annotations

from ..trace.program import Program
from .base import workload

# The capture imports happen at call time: repro.capture.workloads
# itself imports this package (for ``scaled``), so a module-level
# import here would be circular whenever repro.capture loads first.


@workload("capture-histogram")
def _capture_histogram(
    num_threads: int, seed: int, scale: float, **params
) -> Program:
    from ..capture.workloads import capture_histogram

    return capture_histogram(num_threads, seed, scale, **params)


@workload("capture-blackscholes")
def _capture_blackscholes(
    num_threads: int, seed: int, scale: float, **params
) -> Program:
    from ..capture.workloads import capture_blackscholes

    return capture_blackscholes(num_threads, seed, scale, **params)


@workload("capture-pipeline")
def _capture_pipeline(
    num_threads: int, seed: int, scale: float, **params
) -> Program:
    from ..capture.workloads import capture_pipeline

    return capture_pipeline(num_threads, seed, scale, **params)


@workload("capture-workqueue")
def _capture_workqueue(
    num_threads: int, seed: int, scale: float, **params
) -> Program:
    from ..capture.workloads import capture_workqueue

    return capture_workqueue(num_threads, seed, scale, **params)


@workload("capture-racy-counter")
def _capture_racy_counter(
    num_threads: int, seed: int, scale: float, **params
) -> Program:
    from ..capture.workloads import capture_racy_counter

    return capture_racy_counter(num_threads, seed, scale, **params)
