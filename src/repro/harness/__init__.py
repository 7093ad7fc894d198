"""Experiment harness: registry of paper tables/figures, sweeps, rendering,
parallel fault-tolerant execution and the on-disk result cache."""

from ..common.lazy import lazy_exports
from .charts import chartable, render_bars
from .checkpoint import CHECKPOINT_NAME, Checkpoint
from .executor import (
    Executor,
    Manifest,
    SimPoint,
    WorkloadSpec,
    program_digest,
    resolve_jobs,
)
from .experiments import (
    REGISTRY,
    Experiment,
    Settings,
    clear_comparison_cache,
    get_executor,
    run_experiment,
    set_executor,
)
from .faultinject import FaultPlan, KillPlan, hash_draw
from .multiseed import SeedStats, aggregate_normalized, multiseed_table
from .result_cache import ResultCache, default_cache_dir, point_key
from .sweep import SweepPoint, series, sweep
from .tables import TextTable

# the claim catalogue loads on first use: ``repro run`` needs it only
# under --report
_, __getattr__, __dir__ = lazy_exports(__name__, {
    ".shapes": ("ShapeCheck", "run_checks"),
})

__all__ = [
    "CHECKPOINT_NAME",
    "Checkpoint",
    "Executor",
    "FaultPlan",
    "KillPlan",
    "hash_draw",
    "Experiment",
    "Manifest",
    "ResultCache",
    "SeedStats",
    "ShapeCheck",
    "SimPoint",
    "WorkloadSpec",
    "aggregate_normalized",
    "chartable",
    "clear_comparison_cache",
    "default_cache_dir",
    "get_executor",
    "multiseed_table",
    "point_key",
    "program_digest",
    "render_bars",
    "resolve_jobs",
    "run_checks",
    "REGISTRY",
    "Settings",
    "set_executor",
    "SweepPoint",
    "TextTable",
    "run_experiment",
    "series",
    "sweep",
]
