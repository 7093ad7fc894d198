"""Generic parameter sweeps, for users exploring the design space.

:func:`sweep` maps each value of an arbitrary axis (AIM sizes, core
counts, workload parameters) to a configuration and a program and runs
the points through an :class:`~repro.harness.executor.Executor`.  The
paper's sensitivity experiments do not use it: they build their
:class:`~repro.harness.executor.SimPoint` lists and call
``Executor.run_points`` directly (``harness/experiments.py``).

Sweep points are independent simulations, so they fan out: pass
``jobs``/``cache`` (or a preconfigured
:class:`~repro.harness.executor.Executor`) to run them across worker
processes and serve repeats from the on-disk result cache.  Results are
reassembled in ``values`` order, so a parallel sweep is indistinguishable
from a serial one.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..common.config import SystemConfig
from ..core.results import RunResult
from .executor import Executor, SimPoint
from .result_cache import ResultCache

if TYPE_CHECKING:
    from ..trace.program import Program


@dataclass(frozen=True)
class SweepPoint:
    """One (parameter value, result) pair.

    Under an executor in ``keep_going`` mode ``result`` may be a
    :class:`~repro.common.errors.PointFailure`; ``ok`` distinguishes the
    two, and consuming a failed point's metrics raises
    :class:`~repro.common.errors.PointFailedError` rather than yielding
    garbage.
    """

    value: Any
    result: RunResult

    @property
    def ok(self) -> bool:
        return getattr(self.result, "ok", True)

    def metric(self, name: str) -> float:
        return self.result.summary()[name]


def sweep(
    values: Iterable[Any],
    make_config: Callable[[Any], SystemConfig],
    make_program: Callable[[Any], Program],
    *,
    executor: Executor | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[SweepPoint]:
    """Run the simulator across ``values``.

    ``make_config`` and ``make_program`` map each sweep value to the
    configuration and workload of that point; either may ignore the
    value to hold its axis fixed.  The axes are built serially (they are
    arbitrary callables); the simulations fan out through ``executor``,
    or through a temporary ``Executor(jobs, cache)`` when ``jobs`` or
    ``cache`` is given instead.
    """
    values = list(values)
    points = [
        SimPoint(make_config(value), make_program(value)) for value in values
    ]
    owned = executor is None
    if executor is None:
        executor = Executor(jobs=jobs, cache=cache)
    try:
        results = executor.run_points(points)
    finally:
        if owned:
            executor.close()
    return [
        SweepPoint(value=value, result=result)
        for value, result in zip(values, results)
    ]


def series(points: list[SweepPoint], metric: str) -> list[tuple[Any, float]]:
    """Extract an (x, y) series from sweep points."""
    return [(p.value, p.metric(metric)) for p in points]
