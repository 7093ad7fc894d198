"""Bench: regenerate every paper experiment and check its claims.

One test per registered experiment (DESIGN.md's experiment index).
Each runs the experiment once through pytest-benchmark's pedantic mode
(simulations are deterministic, so repetition adds nothing) at the
``bench`` preset, prints the regenerated tables, and asserts that every
claim :mod:`repro.harness.shapes` makes about them holds.  The claims
themselves live only in that catalogue.

Paper-scale runs: ``repro run all --preset full --report FILE``.
"""

import pytest

from repro.harness import REGISTRY, Settings, run_checks, run_experiment

BENCH = Settings.bench()


@pytest.mark.parametrize("exp_id", list(REGISTRY))
def test_paper_claims_hold(benchmark, exp_id):
    tables = benchmark.pedantic(
        run_experiment, args=(exp_id, BENCH), rounds=1, iterations=1
    )
    for table in tables:
        print()
        print(table.render())
    failed = [
        f"{check.claim} — {check.detail}"
        for check in run_checks(exp_id, tables, BENCH)
        if not check.passed
    ]
    assert not failed, failed
