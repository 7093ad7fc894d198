"""Symbolic protocol verifier: static transition extraction + induction.

``repro.protover`` closes the verification stack's static gap: instead
of exploring interleavings (the bounded model checker) or watching one
workload (the sanitizer), it proves properties of the protocol *source*
per guarded transition, before any simulation runs:

1. **Extraction** (:mod:`.extract`): the dispatch methods of
   ``protocols/{base,mesi,ce,ceplus,arc}.py`` are recompiled with every
   branch condition wrapped in a recording guard, so executing one
   ``(state, event)`` step yields the exact sequence of source-level
   guard decisions that produced it — the transition's *symbolic guard*.
2. **Induction** (:mod:`.space`, :mod:`.induct`): an abstract state
   vocabulary per protocol (every invariant-satisfying configuration of
   one focus line over the whole machine — L1 states, byte masks,
   directory, spilled metadata, AIM residency, ARC bank entries and
   region intervals) is encoded onto a real protocol instance; every
   event of the alphabet is executed from every state and the nine
   declarative invariants from :mod:`repro.modelcheck.invariants` are
   re-checked on the post-state.  Eager detection bounds (must/may
   conflict sets computed from the pre-state) catch detector mutations
   that no structural invariant sees.
3. **Refinement** (:mod:`.refine`): CE is stepped against projected
   MESI and CE+ against CE from the same pre-states; any divergence in
   coherence behavior is a finding — the regression guard for base
   class edits.
4. **Concretization** (:mod:`.concretize`): every symbolic
   counterexample must replay as a concrete modelcheck trace program or
   be classified as abstraction imprecision; a trace that replays but
   fails to reproduce its violation is *unsoundness* and test-fatal
   (exit 4), mirroring the staticlint soundness-containment discipline.

The ``repro protover`` CLI drives the sweep and regenerates the
transition tables committed in ``docs/PROTOCOLS.md``.
"""

from .extract import GuardRecorder, SiteTable, load_instrumented
from .induct import Finding, SweepResult, verify_protocol
from .mutations import MUTATIONS
from .space import PROTOVER_KEYS, protover_config

__all__ = [
    "Finding",
    "GuardRecorder",
    "MUTATIONS",
    "PROTOVER_KEYS",
    "SiteTable",
    "SweepResult",
    "load_instrumented",
    "protover_config",
    "verify_protocol",
]
