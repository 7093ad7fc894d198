"""Self-test of the benchmark: ``python3 perfbench/run.py --smoke``.

Runs every workload in both modes on small inputs (the quick preset,
a few dozen service jobs) and asserts that

* ``BENCHMARK.json`` declares exactly the metrics and units emitted;
* every run's result line has the four keys, counts no failure and
  carries every metric with its unit;
* the traced runs see the work each workload is there to exercise, and
  the simulated-work counts repeat exactly across two traced runs;
* the correctness checks fire: a corrupted stdout reference fails the
  run, a corrupted count reference is reported, a starved sampler fails
  the coverage check, and a corrupted served result does not verify.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import math

import metrics as m
from common import ROOT, log

#: service-mixed --seconds giving a few dozen jobs per client
SMOKE_SERVICE_SECONDS = 0.8


class Smoke:
    def __init__(self):
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)
            log(f"smoke FAIL: {message}")

    def result(self, label: str, result: dict, units: dict) -> dict:
        """Check one result line; return its metric values."""
        self.expect(
            set(result) == {"correct", "attempted", "failed", "metrics"},
            f"{label}: result keys {sorted(result)}",
        )
        self.expect(result["correct"] is True, f"{label}: not correct")
        self.expect(result["attempted"] >= 1, f"{label}: nothing attempted")
        self.expect(result["failed"] == 0, f"{label}: {result['failed']} failed")
        got = result["metrics"]
        self.expect(set(got) == set(units), f"{label}: metric names differ: "
                    f"{sorted(set(got) ^ set(units))}")
        for name, unit in units.items():
            entry = got.get(name, {})
            value = entry.get("value")
            self.expect(
                entry.get("unit") == unit
                and isinstance(value, (int, float))
                and math.isfinite(value),
                f"{label}: {name} = {entry}",
            )
        return {name: entry["value"] for name, entry in got.items()}


def _declared() -> dict | None:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else None


def smoke() -> int:
    from run import WORKLOADS, check_counts, run_service, run_suite
    from service_load import verify_samples

    s = Smoke()
    declared = _declared()
    if declared is not None:
        s.expect([w["name"] for w in declared["workloads"]] == list(WORKLOADS),
                 "BENCHMARK.json workloads")
        for key, units in (("end_to_end", m.END_TO_END), ("per_layer", m.PER_LAYER)):
            s.expect({x["name"]: x["unit"] for x in declared[key]} == units,
                     f"BENCHMARK.json {key} differs from metrics.py")

    # -- suites on the quick preset ------------------------------------------
    for workload in ("suite-cold", "suite-warm"):
        log(f"smoke: {workload}")
        s.result(workload, run_suite(workload, 0, 0, False, preset="quick"),
                 m.END_TO_END)
    first, second = (
        s.result("suite-cold traced",
                 run_suite("suite-cold", 0, 0, True, preset="quick"),
                 m.PER_LAYER)
        for _ in range(2)
    )
    s.expect(first["core.simulations"] > 0 and first["core.events"] > 0,
             "suite-cold traced saw no simulation")
    s.expect(first["harness.points"] > 0, "suite-cold traced ran no points")
    s.expect(all(first[f"harness.exp.{e}_s"] > 0 for e in m.EXPERIMENTS),
             "an experiment span is missing")
    s.expect(first["protocols.access_calls"] > 0 and first["noc.send_calls"] > 0,
             "per-access call counters read 0")
    s.expect(all(first[n] == second[n] for n in m.EXACT_COUNTS),
             "counts differ between two traced runs: "
             + str([n for n in m.EXACT_COUNTS if first[n] != second[n]]))
    warm = s.result("suite-warm traced",
                    run_suite("suite-warm", 0, 0, True, preset="quick"),
                    m.PER_LAYER)
    s.expect(warm["core.simulations"] == 0, "warm run simulated")
    s.expect(warm["harness.cache_hit_frac"] == 1.0, "warm run missed the cache")

    # -- service -------------------------------------------------------------
    log("smoke: service-mixed")
    s.result("service-mixed", run_service(0, SMOKE_SERVICE_SECONDS, False),
             m.END_TO_END)
    service = s.result("service-mixed traced",
                       run_service(0, SMOKE_SERVICE_SECONDS, True), m.PER_LAYER)
    for name in ("analysis.analyze_calls", "service.execute_ms",
                 "service.queue_wait_ms", "service.upload_ms",
                 "trace.bytes_decoded", "service.dedupe_frac",
                 "core.simulations"):
        s.expect(service[name] > 0, f"service-mixed traced: {name} reads 0")

    # -- the checks fire on corrupted references -----------------------------
    log("smoke: corrupted references")
    bad = run_suite("suite-cold", 0, 0, False, preset="quick",
                    expect_digest="0" * 64)
    s.expect(bad["correct"] is False and bad["failed"] > 0,
             "a corrupted stdout reference did not fail the run")
    wrong = {name: first[name] + 1 for name in m.EXACT_COUNTS}
    s.expect(len(check_counts(first, wrong, "a corrupted reference"))
             == len(m.EXACT_COUNTS),
             "a corrupted count reference was not reported")
    s.expect(_coverage_check_fires(), "a starved sampler passed the check")
    s.expect(_corrupted_result_detected(verify_samples),
             "a corrupted served result verified")

    if s.failures:
        log(f"smoke: {len(s.failures)} failure(s)")
        return 1
    log("smoke: all checks passed")
    return 0


def _coverage_check_fires() -> bool:
    """One core span of 1 s self time: sampled seconds adding up to it
    pass, a sampler that saw two fifths of it does not."""
    trace = {"spans": [[1, 0, "core.run", "core", 1, 0.0, 1.0, 1.0, None]],
             "sample_interval_s": 0.001, "sampled_s": {"core": 0.7, "mem": 0.3}}
    starved = {**trace, "sampled_s": {"core": 0.4}}
    return (m.check_sample_coverage(trace) == []
            and len(m.check_sample_coverage(starved)) == 1)


def _corrupted_result_detected(verify_samples) -> bool:
    """A served body one byte off the local rendering must not verify."""
    import tempfile
    from pathlib import Path

    from repro.service import JobSpec
    from repro.service.jobs import execute_job, render_payload
    from service_load import ClientLog

    spec = JobSpec(kind="analyze", workload="lock-counter", threads=2,
                   scale=0.02, seed=1)
    body = render_payload(execute_job(spec)).encode()
    good, bad = ClientLog(), ClientLog()
    good.samples.append((spec, None, body))
    bad.samples.append((spec, None, body[:-2] + b"0\n"))
    with tempfile.TemporaryDirectory() as tmp:
        return (verify_samples([good], Path(tmp)) == []
                and len(verify_samples([bad], Path(tmp))) == 1)
