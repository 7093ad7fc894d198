"""Correctness tests for the on-disk result cache.

Cold runs populate, warm runs hit with identical metrics, every input
that affects a simulation changes the key, and corrupted entries are
discarded and recomputed — never trusted.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.common.config import AimConfig, ProtocolKind, SystemConfig
from repro.common.config import config_fingerprint
from repro.harness import Executor, ResultCache, SimPoint, WorkloadSpec
from repro.harness.result_cache import CACHE_SALT, CACHE_SCHEMA, point_key
from repro.noc.network import MeshNetwork


def spec(seed=1, scale=0.05, name="lock-counter", threads=2, **params):
    return WorkloadSpec.make(
        name, num_threads=threads, seed=seed, scale=scale, **params
    )


def cfg(**kw):
    return SystemConfig(num_cores=2, **kw)


class TestColdWarm:
    def test_cold_populates_warm_hits_identically(self, tmp_path):
        cache = ResultCache(tmp_path)
        ex = Executor(jobs=1, cache=cache)
        cold = ex.run(cfg(), spec())
        assert cache.stats.stores == 1
        assert cache.stats.hits == 0

        warm = ex.run(cfg(), spec())
        assert cache.stats.hits == 1
        assert warm.summary() == cold.summary()
        assert [e.status for e in ex.manifest.entries] == ["miss", "hit"]

    def test_warm_hit_across_executor_instances(self, tmp_path):
        first = Executor(jobs=1, cache=ResultCache(tmp_path))
        cold = first.run(cfg(), spec())
        second = Executor(jobs=1, cache=ResultCache(tmp_path))
        warm = second.run(cfg(), spec())
        assert second.cache.stats.hits == 1
        assert second.cache.stats.misses == 0
        assert warm.summary() == cold.summary()

    def test_comparison_hits_whole_batch(self, tmp_path):
        cache = ResultCache(tmp_path)
        ex = Executor(jobs=1, cache=cache)
        cold = ex.compare(cfg(), spec())
        warm = ex.compare(cfg(), spec())
        assert warm.summaries() == cold.summaries()
        assert cache.stats.hits == len(cold.results)

    def test_workload_stats_cached(self, tmp_path):
        ex = Executor(jobs=1, cache=ResultCache(tmp_path))
        cold = ex.workload_stats(spec())
        warm = ex.workload_stats(spec())
        assert warm == cold
        assert ex.cache.stats.hits == 1


class TestKeying:
    def test_key_is_stable(self):
        assert point_key(cfg(), spec().fingerprint()) == point_key(
            cfg(), spec().fingerprint()
        )

    @pytest.mark.parametrize(
        "variant",
        [
            cfg(protocol=ProtocolKind.CE),  # protocol
            cfg(aim=AimConfig(size=64 * 1024)),  # nested config field
            cfg(metadata_bytes=16),  # scalar config field
            replace(cfg(), arc_lazy_clear=False),  # flag
            SystemConfig(num_cores=4),  # geometry
        ],
    )
    def test_config_changes_key(self, variant):
        base_key = point_key(cfg(), spec().fingerprint())
        assert point_key(variant, spec().fingerprint()) != base_key

    @pytest.mark.parametrize(
        "variant",
        [
            spec(seed=2),  # seed
            spec(scale=0.1),  # scale
            spec(name="pipeline-ferret"),  # workload
            spec(threads=4),  # thread count
            spec(rounds=7),  # generator param
        ],
    )
    def test_workload_changes_key(self, variant):
        base_key = point_key(cfg(), spec().fingerprint())
        assert point_key(cfg(), variant.fingerprint()) != base_key

    def test_config_fingerprint_detects_every_field(self):
        base = config_fingerprint(cfg())
        assert config_fingerprint(cfg()) == base
        assert config_fingerprint(cfg(use_owned_state=True)) != base

    def test_program_and_spec_key_spaces_disjoint(self):
        """A prebuilt program never aliases a spec-built point's key."""
        built = spec().build()
        assert SimPoint(cfg(), spec()).key() != SimPoint(cfg(), built).key()

    def test_identical_programs_share_keys(self):
        a, b = spec().build(), spec().build()
        assert SimPoint(cfg(), a).key() == SimPoint(cfg(), b).key()


class TestCorruption:
    def _entry_path(self, cache: ResultCache):
        files = [p for p in cache.root.rglob("*.pkl")]
        assert len(files) == 1
        return files[0]

    def _assert_recomputed(self, tmp_path, corrupt):
        cache = ResultCache(tmp_path)
        ex = Executor(jobs=1, cache=cache)
        cold = ex.run(cfg(), spec())
        corrupt(self._entry_path(cache))

        fresh = ResultCache(tmp_path)
        again = Executor(jobs=1, cache=fresh).run(cfg(), spec())
        assert fresh.stats.discarded == 1
        assert fresh.stats.hits == 0
        assert fresh.stats.stores == 1  # recomputed and re-stored
        assert again.summary() == cold.summary()
        # and the rewritten entry is trusted again
        final = ResultCache(tmp_path)
        assert Executor(jobs=1, cache=final).run(cfg(), spec()) is not None
        assert final.stats.hits == 1

    def test_truncated_entry_recomputed(self, tmp_path):
        self._assert_recomputed(
            tmp_path, lambda p: p.write_bytes(p.read_bytes()[: len(p.read_bytes()) // 2])
        )

    def test_garbage_entry_recomputed(self, tmp_path):
        self._assert_recomputed(tmp_path, lambda p: p.write_bytes(b"not a cache entry"))

    def test_flipped_payload_byte_recomputed(self, tmp_path):
        def flip(p):
            blob = bytearray(p.read_bytes())
            blob[-1] ^= 0xFF
            p.write_bytes(bytes(blob))

        self._assert_recomputed(tmp_path, flip)

    def test_wrong_payload_type_recomputed(self, tmp_path):
        def swap(p):
            payload = pickle.dumps(
                {"key": p.parent.name + p.stem, "salt": CACHE_SALT,
                 "result": "not a RunResult"}
            )
            p.write_bytes(
                hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload
            )

        self._assert_recomputed(tmp_path, swap)

    @staticmethod
    def _rewrite(path, salt, result_of):
        """Replace the entry at ``path`` with a checksummed payload."""
        entry = pickle.loads(path.read_bytes().split(b"\n", 1)[1])
        payload = pickle.dumps(
            {"key": entry["key"], "salt": salt, "result": result_of(entry["result"])}
        )
        path.write_bytes(hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload)

    def test_previous_schema_entry_recomputed(self, tmp_path):
        old_salt = CACHE_SALT.replace(
            f"schema{CACHE_SCHEMA}", f"schema{CACHE_SCHEMA - 1}"
        )
        assert old_salt != CACHE_SALT
        self._assert_recomputed(
            tmp_path, lambda p: self._rewrite(p, old_salt, lambda r: r)
        )

    def test_float_array_network_layout_recomputed(self, tmp_path):
        """A result whose network carries the replaced layout (a float
        peak slot, NumPy per-window link loads) must not load, even
        under the current salt."""

        class OldLayoutNetwork:
            def __init__(self, net):
                self.net = net

            def __reduce__(self):
                net = self.net
                state = {
                    "cfg": net.cfg,
                    "topology": net.topology,
                    "flit_hops_by_category": net.flit_hops_by_category,
                    "messages_by_category": net.messages_by_category,
                    "queue_delay_cycles": net.queue_delay_cycles,
                    "peak_link_utilization": net.peak_link_utilization,
                    "saturated_link_windows": net.saturated_link_windows,
                    "_window_links": {
                        w: np.array(c, dtype=np.float64)
                        for w, c in net._window_links.items()
                    },
                    "_window_cap": net._window_cap,
                }
                return object.__new__, (MeshNetwork,), (None, state)

        self._assert_recomputed(
            tmp_path,
            lambda p: self._rewrite(
                p, CACHE_SALT, lambda r: replace(r, net=OldLayoutNetwork(r.net))
            ),
        )

    def test_corrupt_entry_removed_from_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        ex = Executor(jobs=1, cache=cache)
        ex.run(cfg(), spec())
        path = self._entry_path(cache)
        path.write_bytes(b"junk")
        assert ResultCache(tmp_path).get(path.parent.name + path.stem) is None
        assert not path.exists()


class TestDurability:
    def test_killed_store_leaves_cache_clean_after_reopen(self, tmp_path):
        """A worker SIGKILLed mid-store leaves only .tmp-* residue — no
        torn entry — and the reopen GC sweep reclaims it."""
        import os
        import subprocess
        import sys
        import textwrap

        from repro.common.durable import KILLPOINT_EXIT_STATUS

        code = textwrap.dedent("""
            from repro.harness import KillPlan
            from repro.harness.result_cache import ResultCache
            import sys
            KillPlan(seed=1, rate=1.0, tear_rate=1.0,
                     sites="cache-entry").install()
            ResultCache(sys.argv[1]).put("ab" * 32, {"x": 1})
            sys.exit(99)  # unreachable: the store must die
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == KILLPOINT_EXIT_STATUS
        # the tear left tmp residue but never a (torn) entry file
        assert list(tmp_path.rglob(".tmp-*"))
        assert not list(tmp_path.rglob("*.pkl"))

        cache = ResultCache.open(tmp_path, gc_tmp_age=0)
        assert cache.stats.tmp_reclaimed == 1
        assert not list(tmp_path.rglob(".tmp-*"))
        assert cache.get("ab" * 32) is None  # plain miss, not garbage

    def test_gc_age_gate_protects_live_writers(self, tmp_path):
        shard = tmp_path / "ab"
        shard.mkdir(parents=True)
        (shard / ".tmp-inflight").write_bytes(b"live writer")
        cache = ResultCache.open(tmp_path)  # default hour-long gate
        assert cache.stats.tmp_reclaimed == 0
        assert (shard / ".tmp-inflight").exists()
        assert cache.gc_stale_tmps(0) == [shard / ".tmp-inflight"]

    def test_put_then_crash_is_old_or_new(self, tmp_path):
        """Overwriting an entry under a mid-replace tear keeps the old
        bytes intact — a reader never sees a torn mix."""
        import os
        import subprocess
        import sys
        import textwrap

        from repro.common.durable import KILLPOINT_EXIT_STATUS

        cache = ResultCache(tmp_path)
        key = "cd" * 32
        cache.put(key, {"generation": 1})
        before = cache.path_for(key).read_bytes()
        code = textwrap.dedent("""
            from repro.harness import KillPlan
            from repro.harness.result_cache import ResultCache
            import sys
            KillPlan(seed=3, rate=1.0, tear_rate=1.0,
                     sites="cache-entry").install()
            ResultCache(sys.argv[1]).put("cd" * 32, {"generation": 2})
            sys.exit(99)
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert proc.returncode == KILLPOINT_EXIT_STATUS
        assert cache.path_for(key).read_bytes() == before
        assert ResultCache(tmp_path).get(key, expect=dict) == {"generation": 1}


class TestManifest:
    def test_manifest_json_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ex = Executor(jobs=1, cache=cache)
        ex.compare(cfg(), spec())
        ex.compare(cfg(), spec())
        out = ex.manifest.write(tmp_path / "manifest.json")
        data = json.loads(out.read_text())
        assert data["points"] == len(ex.manifest.entries)
        assert data["hits"] == 4
        assert data["misses"] == 4
        assert data["cache_dir"] == str(cache.root)
        statuses = [e["status"] for e in data["entries"]]
        assert statuses == ["miss"] * 4 + ["hit"] * 4
        for entry in data["entries"]:
            assert len(entry["key"]) == 64
            assert entry["seconds"] >= 0
            assert entry["protocol"] in ("mesi", "ce", "ce+", "arc")

    def test_write_merged_preserves_other_runs_entries(self, tmp_path):
        """Concurrent sweeps sharing a cache dir must not erase each
        other's manifest entries; overlapping keys take this run's
        record and counts are recomputed over the merged set."""
        from repro.harness.executor import Manifest, ManifestEntry

        path = tmp_path / "manifest.json"
        first = Manifest(jobs=1)
        first.entries = [
            ManifestEntry("a" * 64, "w1", "mesi", "miss", 0.5),
            ManifestEntry("b" * 64, "w2", "ce", "miss", 0.25),
        ]
        first.write_merged(path)
        second = Manifest(jobs=2)
        second.entries = [
            ManifestEntry("b" * 64, "w2", "ce", "hit", 0.01),  # overlap
            ManifestEntry("c" * 64, "w3", "arc", "miss", 0.125),
        ]
        out = json.loads(second.write_merged(path).read_text())
        assert out["runs"] == 2
        assert out["points"] == 3
        assert out["hits"] == 1
        assert out["misses"] == 2
        by_key = {e["key"]: e for e in out["entries"]}
        assert by_key["a" * 64]["workload"] == "w1"  # preserved
        assert by_key["b" * 64]["status"] == "hit"  # this run wins
        assert out["seconds"] == 0.635

    def test_eviction_counts_are_per_executor_not_cumulative(self, tmp_path):
        """Many short-lived executors over one long-lived cache — the
        service-worker workload — must not re-report (and write_merged
        must not re-sum) evictions witnessed by earlier executors.

        Regression: corrupt_evictions was copied from the *cumulative*
        cache counter, so one real eviction inflated by one per
        subsequent executor sharing the cache instance."""
        cache = ResultCache(tmp_path / "cache")
        manifest_path = cache.root / "manifest.json"
        point = SimPoint(cfg(), spec())

        first = Executor(jobs=1, cache=cache)
        first.run_points([point])
        cache.corrupt_entry(point.key())

        witness = Executor(jobs=1, cache=cache)
        witness.run_points([point])  # detects, evicts, recomputes
        assert witness.manifest.corrupt_evictions == 1
        witness.manifest.write_merged(manifest_path)

        for _ in range(4):  # clean, short-lived, all pure cache hits
            ex = Executor(jobs=1, cache=cache)
            ex.run_points([point])
            assert ex.manifest.corrupt_evictions == 0
            ex.manifest.write_merged(manifest_path)

        merged = json.loads(manifest_path.read_text())
        assert merged["runs"] == 5
        assert merged["corrupt_evictions"] == 1  # the one real eviction
        assert cache.stats.discarded == 1
