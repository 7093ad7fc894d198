"""Synthetic multithreaded workloads mimicking PARSEC/SPLASH-2 sharing patterns."""

from ..common.lazy import lazy_exports

# resolved on first use: naming the suite must not load the generators
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("generate", "registered_workloads", "scaled", "workload"),
    ".patterns": (
        "AddressSpace",
        "TraceAssembler",
        "random_span",
        "strided_span",
    ),
    ".suite": (
        "CAPTURED_WORKLOADS",
        "EXTRA_WORKLOADS",
        "RACY_SUITE",
        "SUITE",
        "all_workload_names",
        "build_suite",
        "build_workload",
    ),
})
