"""Metric names, units, and the per-layer aggregation of a trace export.

The names here are the ones ``BENCHMARK.json`` declares; ``run.py
--smoke`` checks that the two agree and that every run emits them all.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from common import median
from tracer import LAYERS

#: user-visible metrics, measured with tracing off
END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "job_p50_ms": "ms",
    "job_p99_ms": "ms",
    "jobs_per_s": "1/s",
    "setup_s": "s",
}

#: every experiment ``repro-run all`` regenerates
EXPERIMENTS = (
    "table1_system_config", "table2_workloads", "table_storage",
    "fig_perf_16", "fig_perf_scaling", "fig_energy", "fig_onchip_traffic",
    "fig_traffic_breakdown", "fig_offchip_traffic", "captured_workloads",
    "fig_aim_sensitivity", "fig_region_length", "table3_conflicts",
    "fig_network_saturation", "abl_arc_lazy_clear", "abl_arc_write_through",
    "abl_moesi", "abl_sparse_directory", "abl_private_l2",
    "abl_aim_writeback",
)

PER_LAYER = {
    "core.simulations": "count",
    "core.events": "count",
    "core.self_s": "s",
    "core.ns_per_event": "ns",
    "core.fastpath_frac": "fraction",
    "protocols.access_calls": "count",
    "protocols.boundary_calls": "count",
    "protocols.self_s": "s",
    "protocols.metadata_spills": "count",
    "protocols.invalidations": "count",
    "mem.self_s": "s",
    "mem.lookup_calls": "count",
    "mem.l1_miss_frac": "fraction",
    "mem.dram_bytes": "bytes",
    "mem.dram_metadata_bytes": "bytes",
    "noc.self_s": "s",
    "noc.send_calls": "count",
    "noc.flit_hops": "count",
    "noc.queue_delay_cycles": "cycles",
    "energy.self_s": "s",
    "energy.calls": "count",
    "synth.self_s": "s",
    "synth.generate_calls": "count",
    "trace.self_s": "s",
    "trace.validate_s": "s",
    "trace.decode_s": "s",
    "trace.bytes_decoded": "bytes",
    "analysis.self_s": "s",
    "analysis.analyze_s": "s",
    "analysis.analyze_calls": "count",
    "harness.self_s": "s",
    **{f"harness.exp.{exp}_s": "s" for exp in EXPERIMENTS},
    "harness.points": "count",
    "harness.cache_hit_frac": "fraction",
    "harness.cache_get_s": "s",
    "harness.cache_put_s": "s",
    "harness.checkpoint_s": "s",
    "harness.manifest_s": "s",
    "harness.render_s": "s",
    "harness.import_s": "s",
    "common.self_s": "s",
    "common.durable_syncs": "count",
    "common.durable_sync_s": "s",
    "service.self_s": "s",
    "service.submit_ms": "ms",
    "service.upload_ms": "ms",
    "service.result_ms": "ms",
    "service.execute_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.dedupe_frac": "fraction",
    "service.cache_hit_frac": "fraction",
    "other.self_s": "s",
    "tracing.overhead_s": "s",
    "tracing.sample_coverage": "fraction",
}

#: counts of simulated work: a pure function of the workload and seed,
#: so they must repeat exactly whatever the engine or host
SIMULATED_COUNTS = (
    "core.simulations", "core.events", "protocols.metadata_spills",
    "protocols.invalidations", "mem.dram_bytes", "mem.dram_metadata_bytes",
    "noc.flit_hops", "noc.queue_delay_cycles",
)

#: per-access call counts of the default engine: as exact as the
#: simulated counts, but a change that moves accesses between the batch
#: engine's fast path and the scalar path changes them (and must commit
#: new ones to ``reference.json`` with its reason)
CALL_COUNTS = (
    "protocols.access_calls", "protocols.boundary_calls", "mem.lookup_calls",
    "noc.send_calls",
)

#: every count that must equal the committed reference exactly
EXACT_COUNTS = (
    *SIMULATED_COUNTS, *CALL_COUNTS, "energy.calls", "synth.generate_calls",
    "analysis.analyze_calls", "harness.points", "trace.bytes_decoded",
)

#: the sampler must account for the core spans' self time this closely
SAMPLE_COVERAGE_TOLERANCE = 0.25
#: below this many expected samples the coverage is too noisy to check
SAMPLE_COVERAGE_MIN_SAMPLES = 200


def layer_self_times(trace: dict) -> dict[str, float]:
    """Self seconds per layer, with the core spans split by samples."""
    self_s: Counter = Counter()
    for span in trace["spans"]:
        self_s[span[3]] += span[7]
    sampled = trace["sampled_s"]
    total = sum(sampled.values())
    core = self_s.pop("core", 0.0)
    if total:
        for layer, seconds in sampled.items():
            self_s[layer] += core * seconds / total
    else:
        self_s["core"] += core
    return self_s


def per_layer(trace: dict, extra: dict) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from one trace export.

    ``extra`` carries what the trace cannot see: client-side service
    timings, the import probe and the tracing overhead.  Metrics a
    workload never exercises read 0.
    """
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    notes = defaultdict(list)
    durations = defaultdict(list)
    for _, _, name, _, _, _, duration, _, note in trace["spans"]:
        inclusive[name] += duration
        calls[name] += 1
        if note is not None:
            notes[name].append(note)
        if name == "service.execute":
            durations[name].append(duration)
    counts, sim = trace["counts"], trace["sim"]
    self_s = layer_self_times(trace)
    events = counts.get("events", 0)
    accesses = sim.get("accesses", 0)

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for layer in (*LAYERS, "other"):
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    metrics.update({
        "core.simulations": counts.get("simulations", 0),
        "core.events": events,
        "core.ns_per_event": (
            1e9 * (inclusive["core.build"] + inclusive["core.run"]) / events
            if events else 0.0
        ),
        "core.fastpath_frac": (
            1.0 - counts.get("access_calls", 0) / accesses if accesses else 0.0
        ),
        "protocols.access_calls": counts.get("access_calls", 0),
        "protocols.boundary_calls": counts.get("boundary_calls", 0),
        "protocols.metadata_spills": sim.get("metadata_spills", 0),
        "protocols.invalidations": sim.get("invalidations", 0),
        "mem.lookup_calls": counts.get("lookup_calls", 0),
        "mem.l1_miss_frac": (
            sim["l1_misses"] / sim["l1_accesses"]
            if sim.get("l1_accesses") else 0.0
        ),
        "mem.dram_bytes": sim.get("dram_bytes", 0),
        "mem.dram_metadata_bytes": sim.get("dram_metadata_bytes", 0),
        "noc.send_calls": counts.get("send_calls", 0),
        "noc.flit_hops": sim.get("flit_hops", 0),
        "noc.queue_delay_cycles": sim.get("queue_delay_cycles", 0),
        "energy.calls": calls["energy.compute"],
        "synth.generate_calls": calls["synth.generate"],
        "trace.validate_s": inclusive["trace.validate"],
        "trace.decode_s": inclusive["trace.decode"],
        "trace.bytes_decoded": sum(notes["trace.decode"]),
        "analysis.analyze_s": inclusive["analysis.analyze"],
        "analysis.analyze_calls": calls["analysis.analyze"],
        "harness.points": sum(notes["harness.run_points"]),
        "harness.cache_hit_frac": (
            sum(notes["harness.cache_get"]) / len(notes["harness.cache_get"])
            if notes["harness.cache_get"] else 0.0
        ),
        "harness.cache_get_s": inclusive["harness.cache_get"],
        "harness.cache_put_s": inclusive["harness.cache_put"],
        "harness.checkpoint_s": inclusive["harness.checkpoint"],
        "harness.manifest_s": inclusive["harness.manifest"],
        "harness.render_s": inclusive["harness.render"],
        "common.durable_syncs": calls["common.durable_sync"],
        "common.durable_sync_s": inclusive["common.durable_sync"],
        "service.execute_ms": (
            1000.0 * median(durations["service.execute"])
            if durations["service.execute"] else 0.0
        ),
        "service.queue_wait_ms": (
            1000.0 * median(notes["service.queue_claim"])
            if notes["service.queue_claim"] else 0.0
        ),
        "tracing.sample_coverage": sample_coverage(trace)[0],
    })
    for exp in EXPERIMENTS:
        metrics[f"harness.exp.{exp}_s"] = inclusive[f"harness.exp.{exp}"]
    metrics.update(extra)
    return metrics


def sample_coverage(trace: dict) -> tuple[float, float]:
    """(coverage, expected samples) of the core spans' self time.

    Each sample carries the seconds since the sampler's previous tick,
    so the sampled seconds must come back to the core spans' self time
    that ``layer_self_times`` splits by them.  A sampler that stops
    early, misses threads inside core spans or counts threads outside
    them reads far from 1.
    """
    core = sum(span[7] for span in trace["spans"] if span[3] == "core")
    if core <= 0:
        return 0.0, 0.0
    sampled = sum(trace["sampled_s"].values())
    return sampled / core, core / trace["sample_interval_s"]


def check_sample_coverage(trace: dict) -> list[str]:
    coverage, expected = sample_coverage(trace)
    if expected < SAMPLE_COVERAGE_MIN_SAMPLES:
        return []
    if abs(coverage - 1.0) > SAMPLE_COVERAGE_TOLERANCE:
        return [
            f"the sampler covers {coverage:.3f} of the core spans' self "
            f"time (tolerance {SAMPLE_COVERAGE_TOLERANCE})"
        ]
    return []


def render(metrics: dict, units: dict) -> dict:
    """The ``metrics`` object of the result line."""
    return {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in units.items()
    }
