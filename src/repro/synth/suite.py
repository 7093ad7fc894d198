"""The named workload suite (stand-in for the paper's PARSEC/SPLASH-2 set).

``SUITE`` is the conflict-free evaluation set used by the performance,
energy and traffic figures; ``RACY_SUITE`` contains the workloads with
genuine region conflicts used by the conflicts-detected table.  Every
build is deterministic in (name, num_threads, seed, scale).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import generate, registered_workloads

if TYPE_CHECKING:
    from ..trace.program import Program

#: conflict-free workloads, in figure order
SUITE: tuple[str, ...] = (
    "dataparallel-blackscholes",
    "stencil-ocean",
    "taskqueue-swaptions",
    "readers-writers",
    "pipeline-ferret",
    "lock-counter",
    "migratory-token",
    "false-sharing",
)

#: workloads with true region conflicts (Table "conflicts detected")
RACY_SUITE: tuple[str, ...] = ("racy-writers", "racy-readers")

#: extension workloads: registered and tested, not part of the paper
#: figures (kept out of SUITE so the figure set matches EXPERIMENTS.md)
EXTRA_WORKLOADS: tuple[str, ...] = (
    "irregular-barnes",
    "reduction-fmm",
    "alltoall-radix",
    "compute-water",
)

#: captured real-program workloads (see repro.capture); conflict-free
#: ones first, the deliberately racy detection exercise last
CAPTURED_WORKLOADS: tuple[str, ...] = (
    "capture-histogram",
    "capture-blackscholes",
    "capture-pipeline",
    "capture-workqueue",
    "capture-racy-counter",
)


def build_workload(
    name: str, num_threads: int = 16, seed: int = 1, scale: float = 1.0, **params
) -> Program:
    """Build one named workload (see :func:`repro.synth.base.generate`)."""
    return generate(name, num_threads=num_threads, seed=seed, scale=scale, **params)


def build_suite(
    num_threads: int = 16, seed: int = 1, scale: float = 1.0
) -> list[Program]:
    """Build the full conflict-free suite."""
    return [build_workload(name, num_threads, seed, scale) for name in SUITE]


def all_workload_names() -> list[str]:
    return registered_workloads()
