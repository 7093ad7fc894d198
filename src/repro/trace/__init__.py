"""Trace substrate: events, builders, programs, SFR analysis, validation, IO."""

from ..common.lazy import lazy_exports

# resolved on first use: most of these modules import NumPy
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".builder": ("TraceBuilder",),
    ".events": (
        "ACQUIRE",
        "BARRIER",
        "EVENT_DTYPE",
        "KIND_NAMES",
        "READ",
        "RELEASE",
        "WRITE",
        "ThreadTrace",
    ),
    ".binio": ("BinTraceWriter", "load_program_bin", "save_program_bin"),
    ".io": ("load_program", "save_program"),
    ".program": ("Program",),
    ".stats": ("ProgramStats",),
    ".regions": (
        "RegionSummary",
        "region_ids",
        "region_lengths",
        "summarize_regions",
    ),
    ".validate": ("validate_program", "validate_trace"),
})
