"""Tests for the synthetic workload generators."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

import repro.synth.base as synth_base
from repro.common.errors import ConfigError, TraceError
from repro.harness.executor import program_digest
from repro.synth import (
    AddressSpace,
    EXTRA_WORKLOADS,
    RACY_SUITE,
    SUITE,
    TraceAssembler,
    build_workload,
    generate,
    random_span,
    registered_workloads,
    scaled,
    strided_span,
)
from repro.trace import validate_program


class TestAddressSpace:
    def test_disjoint_allocations(self):
        space = AddressSpace()
        a = space.alloc(100)
        b = space.alloc(100)
        assert b >= a + 100

    def test_line_alignment(self):
        space = AddressSpace(line_size=64)
        space.alloc(3)  # misalign the cursor
        assert space.alloc_lines(2) % 64 == 0

    def test_per_thread_regions_disjoint(self):
        space = AddressSpace()
        bases = space.alloc_per_thread(4, 1000)
        for i in range(3):
            assert bases[i + 1] >= bases[i] + 1000

    def test_bad_size_rejected(self):
        with pytest.raises(TraceError):
            AddressSpace().alloc(0)


class TestTraceAssembler:
    def test_kinds_sequence(self):
        from repro.trace.events import ACQUIRE, READ, RELEASE, WRITE

        asm = TraceAssembler()
        asm.reads(strided_span(0, 2))
        asm.acquire(1)
        asm.write(0x100)
        asm.release(1)
        trace = asm.build()
        assert trace.kinds.tolist() == [READ, READ, ACQUIRE, WRITE, RELEASE]

    def test_unaligned_block_rejected(self):
        asm = TraceAssembler()
        with pytest.raises(TraceError):
            asm.reads(np.array([3], dtype=np.uint64), size=8)

    def test_writes_mask(self):
        asm = TraceAssembler()
        asm.accesses(strided_span(0, 4), np.array([True, False, True, False]))
        trace = asm.build()
        assert trace.kinds.tolist() == [1, 0, 1, 0]

    def test_mask_length_mismatch_rejected(self):
        asm = TraceAssembler()
        with pytest.raises(TraceError):
            asm.accesses(strided_span(0, 4), np.array([True]))

    def test_held_lock_rejected_at_build(self):
        asm = TraceAssembler().acquire(1)
        with pytest.raises(TraceError):
            asm.build()

    def test_empty_block_is_noop(self):
        asm = TraceAssembler()
        asm.reads(np.array([], dtype=np.uint64))
        assert len(asm.build()) == 0


class TestSpans:
    def test_strided_span(self):
        assert strided_span(100, 3, stride=8).tolist() == [100, 108, 116]

    def test_random_span_in_range(self):
        rng = np.random.default_rng(0)
        addrs = random_span(rng, 1000, 800, 100)
        assert all(1000 <= a < 1800 for a in addrs.tolist())
        assert all(a % 8 == 0 for a in addrs.tolist())

    def test_random_span_too_small(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TraceError):
            random_span(rng, 0, 4, 1, stride=8)


class TestRegistry:
    def test_all_suite_workloads_registered(self):
        names = registered_workloads()
        for name in SUITE + RACY_SUITE:
            assert name in names

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            generate("does-not-exist")

    def test_bad_threads_rejected(self):
        with pytest.raises(ConfigError):
            generate("lock-counter", num_threads=0)

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigError):
            generate("lock-counter", scale=0)

    def test_scaled_minimum(self):
        assert scaled(10, 0.001) == 1
        assert scaled(10, 0.5) == 5


@pytest.mark.parametrize("name", SUITE + RACY_SUITE + EXTRA_WORKLOADS)
class TestEveryGenerator:
    def test_valid_and_deterministic(self, name):
        a = build_workload(name, num_threads=4, seed=5, scale=0.05)
        validate_program(a, 64)
        assert a.name == name
        assert a.num_threads == 4
        assert a.num_events() > 0
        synth_base._last_built = None  # rebuild rather than reuse ``a``
        b = build_workload(name, num_threads=4, seed=5, scale=0.05)
        assert b is not a
        assert all(x == y for x, y in zip(a.traces, b.traces))

    def test_seed_changes_trace(self, name):
        a = build_workload(name, num_threads=4, seed=1, scale=0.05)
        b = build_workload(name, num_threads=4, seed=2, scale=0.05)
        # stencil is fully deterministic in layout; data-dependent
        # workloads must differ somewhere
        if name not in ("stencil-ocean",):
            assert any(x != y for x, y in zip(a.traces, b.traces))

    def test_scale_grows_events(self, name):
        small = build_workload(name, num_threads=4, seed=1, scale=0.05)
        large = build_workload(name, num_threads=4, seed=1, scale=0.2)
        assert large.num_events() > small.num_events()

    def test_single_thread_works(self, name):
        program = build_workload(name, num_threads=1, seed=1, scale=0.05)
        validate_program(program, 64)


class TestWorkloadShapes:
    def test_false_sharing_has_shared_lines_but_disjoint_bytes(self):
        program = build_workload("false-sharing", num_threads=4, seed=1, scale=0.1)
        stats = program.stats()
        assert stats.shared_lines > 0

    def test_false_sharing_too_many_threads(self):
        with pytest.raises(ConfigError):
            build_workload("false-sharing", num_threads=65, seed=1, scale=0.1)

    def test_dataparallel_is_read_heavy(self):
        stats = build_workload(
            "dataparallel-blackscholes", num_threads=4, seed=1, scale=0.2
        ).stats()
        assert stats.write_fraction < 0.5

    def test_lock_counter_has_many_regions(self):
        stats = build_workload("lock-counter", num_threads=4, seed=1, scale=0.2).stats()
        assert stats.num_regions > 100

    def test_migratory_has_long_regions(self):
        stats = build_workload("migratory-token", num_threads=4, seed=1, scale=0.2).stats()
        assert stats.mean_region_length > 50


def _fresh(name, **kwargs):
    """Build bypassing the last-build memo."""
    synth_base._last_built = None
    return generate(name, **kwargs)


_SPEC = dict(num_threads=4, seed=3, scale=0.5, iterations=40)


class TestGenerateMemo:
    def test_repeat_returns_an_identical_program(self):
        first = generate("lock-counter", **_SPEC)
        again = generate("lock-counter", **_SPEC)
        assert again is first
        assert program_digest(again) == program_digest(_fresh("lock-counter", **_SPEC))

    @pytest.mark.parametrize(
        "change",
        [
            {"name": "migratory-token"},
            {"num_threads": 2},
            {"seed": 4},
            {"scale": 0.75},
            {"iterations": 60},
            {"private_ops": 8},
        ],
    )
    def test_any_changed_argument_rebuilds(self, change):
        spec = dict(_SPEC, name="lock-counter")
        first = generate(**spec)
        changed = dict(spec, **change)
        if changed["name"] != "lock-counter":
            del changed["iterations"]
        rebuilt = generate(**changed)
        assert rebuilt is not first
        assert program_digest(rebuilt) == program_digest(_fresh(**changed))
        assert program_digest(rebuilt) != program_digest(first)

    def test_holds_at_most_one_program(self):
        first = generate("lock-counter", **_SPEC)
        first_ref = weakref.ref(first)
        del first
        second = generate("lock-counter", **dict(_SPEC, seed=9))
        gc.collect()
        assert first_ref() is None
        assert synth_base._last_built[1] is second

    def test_threads_building_different_specs_get_their_own(self):
        # more threads than cores, switching often, each alternating
        # between its own spec and a shared one so the memo churns
        specs = [dict(_SPEC, seed=seed) for seed in (11, 12, 13, 14)]
        shared = dict(_SPEC, seed=15)
        expected = {
            spec["seed"]: program_digest(_fresh("lock-counter", **spec))
            for spec in specs + [shared]
        }
        start = threading.Barrier(len(specs))
        mismatches: list[tuple[int, int]] = []

        def build(spec):
            start.wait(timeout=60)
            for round_ in range(12):
                want = spec if round_ % 2 else shared
                program = generate("lock-counter", **want)
                if program_digest(program) != expected[want["seed"]]:
                    mismatches.append((spec["seed"], want["seed"]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(spec,)) for spec in specs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        key, program = synth_base._last_built
        assert program_digest(program) == expected[key[2]]
