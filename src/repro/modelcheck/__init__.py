"""Protocol model checker and coherence invariant sanitizer.

Exhaustively explores every interleaving of small bounded workloads on
the *real* protocol classes, checking a declarative invariant suite
(refinement of CE against a lockstep MESI twin and of CE+ against a CE
twin included) at every reachable state and cross-checking detection
against the happens-before oracle on every complete interleaving;
:data:`MUTATIONS` is the catalogue of seeded defects; the sanitizer
runs the suite's line- and core-scoped checks after every dispatch of
full-size runs (``run.py --sanitize``).  See ``docs/MODELCHECK.md``.
"""

from .driver import CYCLE_STRIDE, Driver, PROTOCOL_KEYS, Run, modelcheck_config
from .explorer import (
    COMPLETENESS,
    SOUNDNESS,
    Counterexample,
    ExploreStats,
    ModelCheckResult,
    check_protocol,
    explore_workload,
)
from .invariants import INVARIANTS, Invariant, Violation, check_state
from .mutations import MUTATIONS, Mutation
from .sanitize import arm_protocol
from .shrink import minimize, parse_trace, render_trace, replay_trace
from .workload import (
    MCEvent,
    Script,
    Workload,
    alphabet,
    curated_scenarios,
    default_script_len,
    enumerate_workloads,
    workload_label,
)

__all__ = [
    "CYCLE_STRIDE",
    "COMPLETENESS",
    "Counterexample",
    "Driver",
    "ExploreStats",
    "INVARIANTS",
    "Invariant",
    "MCEvent",
    "MUTATIONS",
    "ModelCheckResult",
    "Mutation",
    "PROTOCOL_KEYS",
    "Run",
    "SOUNDNESS",
    "Script",
    "Violation",
    "Workload",
    "alphabet",
    "arm_protocol",
    "check_protocol",
    "check_state",
    "curated_scenarios",
    "default_script_len",
    "enumerate_workloads",
    "explore_workload",
    "minimize",
    "modelcheck_config",
    "parse_trace",
    "render_trace",
    "replay_trace",
    "workload_label",
]
