"""repro — reproduction of "Rethinking Support for Region Conflict
Exceptions" (Biswas, Zhang, Bond, Lucia; IPDPS 2019).

A trace-driven multicore simulator implementing the paper's four
systems — baseline MESI, Conflict Exceptions (CE), CE+ (CE with the AIM
on-chip metadata cache), and ARC (conflict detection on
self-invalidation/release-consistency coherence) — plus the synthetic
workload suite and the experiment harness that regenerate the paper's
tables and figures.

Quick start::

    from repro import SystemConfig, compare_protocols
    from repro.synth.suite import build_workload

    program = build_workload("lock-counter", num_threads=8, seed=7)
    cmp = compare_protocols(SystemConfig(num_cores=8), program)
    print(cmp.normalized_runtime())
"""

from .common.lazy import lazy_exports

__version__ = "1.0.0"

# resolved on first use, so ``import repro.<subpackage>`` stays cheap
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".common.config": (
        "ALL_PROTOCOLS",
        "AimConfig",
        "CacheConfig",
        "DramConfig",
        "NocConfig",
        "ProtocolKind",
        "SystemConfig",
    ),
    ".common.errors": (
        "ConfigError",
        "ConflictRecord",
        "RegionConflictError",
        "ReproError",
        "SimulationError",
        "TraceError",
    ),
    ".core.api": ("compare_protocols", "run_program"),
    ".core.batch": ("BatchSimulator", "make_simulator"),
    ".core.results": ("Comparison", "RunResult", "geomean"),
    ".core.simulator": ("Simulator",),
    ".trace.builder": ("TraceBuilder",),
    ".trace.program": ("Program",),
})
__all__.append("__version__")
