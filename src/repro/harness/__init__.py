"""Experiment harness: registry of paper tables/figures, sweeps, rendering,
parallel fault-tolerant execution and the on-disk result cache.

Every name loads with its module on first use, so ``repro run`` pays
only for the modules its run needs (no fault injection, multi-seed or
sweep machinery, and no claim catalogue without ``--report``).
"""

from ..common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".charts": ("chartable", "render_bars"),
    ".checkpoint": ("CHECKPOINT_NAME", "Checkpoint"),
    ".executor": (
        "Executor",
        "Manifest",
        "SimPoint",
        "WorkloadSpec",
        "program_digest",
        "resolve_jobs",
    ),
    ".experiments": (
        "REGISTRY",
        "Experiment",
        "Settings",
        "clear_comparison_cache",
        "get_executor",
        "run_experiment",
        "set_executor",
    ),
    ".faultinject": ("FaultPlan", "KillPlan", "hash_draw"),
    ".multiseed": ("SeedStats", "aggregate_normalized", "multiseed_table"),
    ".result_cache": ("ResultCache", "default_cache_dir", "point_key"),
    ".shapes": ("ShapeCheck", "run_checks"),
    ".sweep": ("SweepPoint", "series", "sweep"),
    ".tables": ("TextTable",),
})
