"""Workload generator registry.

A *generator* is a function ``(num_threads, seed, scale, **params) ->
Program``.  ``scale`` multiplies the workload's event counts so the same
pattern can run as a quick test (scale ~0.1) or a full benchmark
(scale 1.0+).  Generators register themselves with :func:`workload`,
and :func:`generate` builds by name — the suite and the experiment
harness are built on this registry.  The generator modules are imported
on the registry's first lookup, not with this module: naming a workload
(a cache key, the suite's name lists) loads no generator and no NumPy.
"""

from __future__ import annotations

import importlib
import threading
from typing import TYPE_CHECKING, Any, Callable, Protocol

from ..common.errors import ConfigError

if TYPE_CHECKING:
    from ..trace.program import Program


class Generator(Protocol):
    def __call__(
        self, num_threads: int, seed: int, scale: float, **params
    ) -> Program: ...


_REGISTRY: dict[str, Generator] = {}

#: the modules whose ``@workload`` decorators fill the registry
_GENERATOR_MODULES = (
    "alltoall",
    "barrier_phases",
    "captured",
    "compute",
    "dataparallel",
    "false_sharing",
    "irregular",
    "lock_contend",
    "migratory",
    "producer_consumer",
    "racy",
    "readers_writers",
    "reduction",
    "task_queue",
)


def _registry() -> dict[str, Generator]:
    """The registry, its generator modules imported on first use (later
    calls find them in ``sys.modules``)."""
    for module in _GENERATOR_MODULES:
        importlib.import_module(f".{module}", __package__)
    return _REGISTRY


def workload(name: str) -> Callable[[Generator], Generator]:
    """Decorator registering a workload generator under ``name``."""

    def register(fn: Generator) -> Generator:
        if name in _REGISTRY:
            raise ConfigError(f"workload {name!r} registered twice")
        _REGISTRY[name] = fn
        return fn

    return register


def registered_workloads() -> list[str]:
    """Names of all registered generators, sorted."""
    return sorted(_registry())


#: the last program built and its arguments: the protocol points of one
#: experiment ask for the same workload back to back, so one entry
#: serves them all without holding a second program alive
_last_built: tuple[tuple[Any, ...], Program] | None = None
_last_built_lock = threading.Lock()


def generate(
    name: str, num_threads: int = 16, seed: int = 1, scale: float = 1.0, **params
) -> Program:
    """Build the named workload.

    Generators are deterministic in their arguments and programs are
    immutable, so a call repeating the previous call's arguments returns
    the program that call built.
    """
    global _last_built
    fn = _registry().get(name)
    if fn is None:
        raise ConfigError(
            f"unknown workload {name!r}; available: {registered_workloads()}"
        )
    if num_threads <= 0:
        raise ConfigError("num_threads must be positive")
    if scale <= 0:
        raise ConfigError("scale must be positive")
    key = (name, num_threads, seed, scale, sorted(params.items()))
    with _last_built_lock:
        if _last_built is not None and _last_built[0] == key:
            return _last_built[1]
        _last_built = None  # let the old program go before building
    program = fn(num_threads, seed, scale, **params)
    program.name = name
    with _last_built_lock:
        _last_built = (key, program)
    return program


def scaled(count: int, scale: float, minimum: int = 1) -> int:
    """Scale an event count, keeping at least ``minimum``."""
    return max(minimum, int(round(count * scale)))
