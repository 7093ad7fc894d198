"""High-level public API.

Most users need exactly two calls::

    from repro import SystemConfig, run_program, compare_protocols
    from repro.synth import suite

    program = suite.build("pipeline-ferret", num_threads=16, seed=1)
    result = run_program(SystemConfig(protocol="arc"), program)
    comparison = compare_protocols(SystemConfig(num_cores=16), program)
    print(comparison.normalized_runtime())
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ..common.config import ALL_PROTOCOLS, ProtocolKind, SystemConfig
from ..trace.program import Program
from ..trace.validate import validate_program
from .batch import make_simulator
from .results import Comparison, RunResult


def run_program(
    cfg: SystemConfig,
    program: Program,
    *,
    validate: bool = True,
    engine: str | None = None,
) -> RunResult:
    """Simulate ``program`` on ``cfg`` and return the run's results.

    ``engine`` picks the simulation tier (``"scalar"`` or ``"batch"``,
    byte-identical by the differential suite); ``None`` defers to
    ``$REPRO_ENGINE`` and then the batch default.
    """
    if validate:
        validate_program(program, cfg.line_size)
    return make_simulator(cfg, program, engine=engine).run()


#: maps (config, program) pairs to their results, order-preserving;
#: see ``Executor.as_runner`` in :mod:`repro.harness.executor`
Runner = Callable[[list[tuple[SystemConfig, Program]]], list[RunResult]]


def compare_protocols(
    cfg: SystemConfig,
    program: Program,
    protocols: Iterable[ProtocolKind | str] = ALL_PROTOCOLS,
    *,
    validate: bool = True,
    runner: Runner | None = None,
) -> Comparison:
    """Run ``program`` under several protocols on otherwise-identical
    hardware and return a :class:`Comparison` (normalized to MESI).

    Always includes MESI (the normalization baseline) even if absent
    from ``protocols``.

    ``runner``, when given, executes the per-protocol simulations —
    pass ``Executor(...).as_runner()`` to fan them out across worker
    processes and/or serve them from the on-disk result cache.  It must
    return one :class:`RunResult` per input pair, in input order; the
    simulator is deterministic, so any conforming runner produces the
    identical :class:`Comparison`.
    """
    kinds: list[ProtocolKind] = [ProtocolKind(p) for p in protocols]
    if ProtocolKind.MESI not in kinds:
        kinds.insert(0, ProtocolKind.MESI)
    if validate:
        validate_program(program, cfg.line_size)
    if runner is not None:
        pairs = [(cfg.with_protocol(kind), program) for kind in kinds]
        results = dict(zip(kinds, runner(pairs)))
    else:
        results = {
            kind: make_simulator(cfg.with_protocol(kind), program).run()
            for kind in kinds
        }
    return Comparison(program_name=program.name, results=results)
