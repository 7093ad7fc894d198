"""Determinism tests for the parallel executor.

The executor's contract: any (jobs, cache) configuration produces
results indistinguishable from the serial in-process path — same
``summary()`` metrics, same rendered table text — because points are
independent deterministic simulations reassembled in submission order.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from repro.common.config import ProtocolKind, SystemConfig
from repro.core.api import compare_protocols
from repro.harness import (
    Executor,
    Settings,
    SimPoint,
    WorkloadSpec,
    clear_comparison_cache,
    run_experiment,
    set_executor,
    sweep,
)
from repro.synth import build_workload

ALL_KINDS = (
    ProtocolKind.MESI,
    ProtocolKind.CE,
    ProtocolKind.CEPLUS,
    ProtocolKind.ARC,
)

#: one representative per workload family (data-parallel, pipeline,
#: lock-based, false-sharing, racy)
FAMILIES = (
    "dataparallel-blackscholes",
    "pipeline-ferret",
    "lock-counter",
    "false-sharing",
    "racy-writers",
)

_PARALLEL: Executor | None = None


def parallel_executor() -> Executor:
    """One shared jobs=4 pool for the whole module (forks are cheap, but
    not free)."""
    global _PARALLEL
    if _PARALLEL is None:
        _PARALLEL = Executor(jobs=4)
    return _PARALLEL


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pool():
    yield
    global _PARALLEL
    if _PARALLEL is not None:
        _PARALLEL.close()
        _PARALLEL = None


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_jobs4_matches_jobs1_all_protocols(self, name):
        cfg = SystemConfig(num_cores=4)
        spec = WorkloadSpec.make(name, num_threads=4, seed=1, scale=0.05)
        serial = Executor(jobs=1).compare(cfg, spec, protocols=ALL_KINDS)
        fanned = parallel_executor().compare(cfg, spec, protocols=ALL_KINDS)
        assert fanned.summaries() == serial.summaries()

    def test_matches_direct_simulator_path(self):
        """The executor is a transport, not a semantics change: results
        equal compare_protocols() driving the Simulator inline."""
        cfg = SystemConfig(num_cores=4)
        program = build_workload("migratory-token", num_threads=4, seed=3,
                                 scale=0.05)
        inline = compare_protocols(cfg, program, protocols=ALL_KINDS)
        fanned = parallel_executor().compare(cfg, program, protocols=ALL_KINDS)
        assert fanned.summaries() == inline.summaries()

    def test_compare_protocols_runner_hook(self):
        cfg = SystemConfig(num_cores=2)
        program = build_workload("readers-writers", num_threads=2, seed=1,
                                 scale=0.05)
        inline = compare_protocols(cfg, program)
        routed = compare_protocols(
            cfg, program, runner=parallel_executor().as_runner()
        )
        assert routed.summaries() == inline.summaries()

    def test_results_in_submission_order(self):
        cfg = SystemConfig(num_cores=2)
        specs = [
            WorkloadSpec.make("lock-counter", num_threads=2, seed=seed,
                              scale=0.05)
            for seed in (1, 2, 3, 4, 5, 6)
        ]
        points = [SimPoint(cfg, spec) for spec in specs]
        fanned = parallel_executor().run_points(points)
        serial = Executor(jobs=1).run_points(points)
        assert [r.summary() for r in fanned] == [r.summary() for r in serial]

    def test_experiment_table_text_identical(self):
        """A whole experiment renders byte-identical table text."""
        quick = Settings.quick()
        try:
            clear_comparison_cache()
            set_executor(Executor(jobs=1))
            serial = [t.render() for t in run_experiment("fig_perf_16", quick)]
            clear_comparison_cache()
            set_executor(parallel_executor())
            fanned = [t.render() for t in run_experiment("fig_perf_16", quick)]
        finally:
            set_executor(None)
            clear_comparison_cache()
        assert fanned == serial


class TestSweepFanout:
    def test_sweep_jobs4_matches_serial(self):
        program = build_workload("dataparallel-blackscholes", num_threads=4,
                                 seed=1, scale=0.05)
        values = ["mesi", "ce", "ce+", "arc"]

        def run(executor):
            return sweep(
                values,
                make_config=lambda p: SystemConfig(num_cores=4, protocol=p),
                make_program=lambda _p: program,
                executor=executor,
            )

        serial = run(None)
        fanned = run(parallel_executor())
        assert [p.value for p in fanned] == values
        assert [p.result.summary() for p in fanned] == [
            p.result.summary() for p in serial
        ]

    @hsettings(max_examples=5, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=1, max_value=50),
        data=st.data(),
    )
    def test_random_sweep_axes_property(self, seed, data):
        """Seeded property case: random (workload, threads, scale,
        protocol) axes sweep identically serial and parallel."""
        rng = random.Random(seed)
        axes = []
        for _ in range(data.draw(st.integers(min_value=2, max_value=4))):
            axes.append(
                (
                    rng.choice(FAMILIES),
                    rng.choice([2, 4]),
                    rng.choice([0.03, 0.05]),
                    rng.choice(["mesi", "ce", "ce+", "arc"]),
                    rng.randrange(1, 100),
                )
            )

        def run(executor):
            return sweep(
                axes,
                make_config=lambda a: SystemConfig(num_cores=a[1], protocol=a[3]),
                make_program=lambda a: build_workload(
                    a[0], num_threads=a[1], seed=a[4], scale=a[2]
                ),
                executor=executor,
            )

        serial = run(None)
        fanned = run(parallel_executor())
        assert [p.result.summary() for p in fanned] == [
            p.result.summary() for p in serial
        ]


class TestExecutorBasics:
    def test_jobs_must_be_positive(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            Executor(jobs=0)

    def test_empty_batch(self):
        assert Executor(jobs=1).run_points([]) == []

    def test_manifest_records_computed_points(self):
        ex = Executor(jobs=1)
        cfg = SystemConfig(num_cores=2)
        spec = WorkloadSpec.make("lock-counter", num_threads=2, seed=1,
                                 scale=0.05)
        ex.run(cfg, spec)
        assert len(ex.manifest.entries) == 1
        entry = ex.manifest.entries[0]
        assert entry.status == "computed"  # no cache attached
        assert entry.workload == "lock-counter"
        assert entry.protocol == "mesi"
        assert entry.seconds >= 0
        assert len(entry.key) == 64

    def test_no_cache_simulates_each_key_once(self, monkeypatch):
        """Without a cache, a key an earlier batch simulated (experiments
        share points) is served from memory, not simulated again."""
        import repro.core.batch as batch

        built = []
        real = batch.make_simulator

        def counting(cfg, program, *args, **kwargs):
            built.append(cfg.protocol)
            return real(cfg, program, *args, **kwargs)

        monkeypatch.setattr(batch, "make_simulator", counting)
        cfg = SystemConfig(num_cores=2)
        spec = WorkloadSpec.make("lock-counter", num_threads=2, seed=1,
                                 scale=0.05)
        mesi, ce = (
            SimPoint(cfg.with_protocol(kind), spec)
            for kind in (ProtocolKind.MESI, ProtocolKind.CE)
        )
        ex = Executor(jobs=1)
        first = ex.run_points([mesi])
        second = ex.run_points([ce, mesi])
        assert len(built) == len({mesi.key(), ce.key()}) == 2
        assert second[1] is first[0]
        assert [e.status for e in ex.manifest.entries] == [
            "computed", "computed", "hit"
        ]

    def test_no_cache_memo_is_bounded(self, monkeypatch):
        """A long-lived cache-less executor keeps only the newest
        results, so its memory does not grow with every point."""
        monkeypatch.setattr("repro.harness.executor._MEMO_LIMIT", 1)
        cfg = SystemConfig(num_cores=2)
        spec = WorkloadSpec.make("lock-counter", num_threads=2, seed=1,
                                 scale=0.05)
        mesi, ce = (
            SimPoint(cfg.with_protocol(kind), spec)
            for kind in (ProtocolKind.MESI, ProtocolKind.CE)
        )
        ex = Executor(jobs=1)
        ex.run_points([mesi, ce])
        ex.run_points([ce, mesi])
        assert [e.status for e in ex.manifest.entries] == [
            "computed", "computed", "hit", "computed"
        ]

    def test_pool_forks_after_loading_the_simulation_stack(self):
        """Forked workers inherit the simulator instead of each
        importing NumPy and the protocols themselves."""
        code = (
            "import sys\n"
            "from repro.harness.executor import Executor\n"
            "ex = Executor(jobs=2)\n"
            "print('repro.core.batch' in sys.modules)\n"
            "ex._ensure_pool()\n"
            "print('repro.core.batch' in sys.modules)\n"
            "ex.close()\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, check=True,
        )
        assert proc.stdout.split() == ["False", "True"]

    def test_spec_build_matches_build_workload(self):
        spec = WorkloadSpec.make("pipeline-ferret", num_threads=4, seed=2,
                                 scale=0.05)
        from repro.harness import program_digest

        direct = build_workload("pipeline-ferret", num_threads=4, seed=2,
                                scale=0.05)
        assert program_digest(spec.build()) == program_digest(direct)


@pytest.mark.slow
class TestEndToEnd:
    def test_run_all_quick_parallel_cached(self):
        """`run all --preset quick`: jobs=4 == jobs=1 byte-for-byte, and
        a warm cache turns the whole invocation into hits (see
        benchmarks/bench_executor.py, which this wires into the suite)."""
        import importlib.util
        from pathlib import Path

        bench_path = (
            Path(__file__).resolve().parent.parent
            / "benchmarks" / "bench_executor.py"
        )
        loader = importlib.util.spec_from_file_location("bench_executor",
                                                        bench_path)
        module = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(module)
        summary = module.bench_executor(min_speedup=2.0)
        assert summary["points"] > 100
