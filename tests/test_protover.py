"""Tests for the symbolic protocol verifier (``src/repro/protover``).

Three layers, mirroring the acceptance contract:

* the inductive sweeps are **clean on the shipped sources** — every
  reachable vocabulary state × event transition preserves all nine
  modelcheck invariants, stays inside the detection bounds, and the
  extracted guarded relation is complete, non-overlapping, and
  deterministic;
* each of the four seeded protocol mutations (the same ones the
  dynamic modelchecker drills in ``test_modelcheck.py``) is flagged
  *statically*, and the symbolic counterexample concretizes into a
  replayable modelcheck trace (status ``replayed``, never
  ``unsound``);
* the CLI honours its exit-code contract (0 clean / 3 findings or
  docs drift / 4 unsound) and the committed transition tables in
  ``docs/PROTOCOLS.md`` match what the verifier generates today.
"""

from __future__ import annotations

import pytest

from repro.protover import MUTATIONS, PROTOVER_KEYS, verify_protocol
from repro.protover.concretize import CONCRETIZABLE, cross_validate
from repro.protover.extract import load_instrumented
from repro.protover.refine import REFINEMENT_PAIRS, check_refinements
from repro.protover.space import REPLAY_KEYS, events_for, states_for
from repro.protover.tables import docs_current, docs_path, render_tables
from repro.cli import EXIT_FINDINGS
from repro.tools.protover_cli import main

#: state-space sizes the vocabulary is expected to enumerate; a silent
#: shrink here would hollow out every "clean sweep" claim below
EXPECTED_STATES = {"mesi": 8, "moesi": 12, "ce": 448, "ceplus": 1344,
                   "arc": 784}


@pytest.fixture(scope="module")
def loaded():
    return load_instrumented()


@pytest.fixture(scope="module")
def sweeps(loaded):
    """One full unmutated sweep per protocol, shared across tests."""
    return {
        key: verify_protocol(key, loaded=loaded)
        for key in PROTOVER_KEYS
    }


# ---------------------------------------------------------------------------
# the inductive sweeps on unmutated sources


@pytest.mark.parametrize("key", PROTOVER_KEYS)
def test_clean_sweep(sweeps, key):
    result = sweeps[key]
    assert result.clean, (
        f"{key}: unexpected findings {result.finding_counts} — e.g. "
        + "; ".join(f"{f.kind}: {f.message}" for f in result.findings[:3])
    )
    assert result.states == EXPECTED_STATES[key]
    assert result.steps > 0 and result.sites > 100


@pytest.mark.parametrize("key", PROTOVER_KEYS)
def test_transition_table_covers_alphabet(sweeps, key):
    """Every enumerated state stepped through every applicable event:
    the aggregated table must mention every event shape."""
    result = sweeps[key]
    seen_events = {label.split(" ", 1)[-1] for _pre, label in result.table}
    expected = {
        event.label().split(" ", 1)[-1] for event in events_for(key)
    }
    assert seen_events == expected


def test_vocabulary_excludes_unreachable_spill_states():
    """A live spilled entry means the line left that core's cache
    (spill *is* eviction), so live-meta + any cached copy must never be
    enumerated — it is unreachable and breaks induction."""
    for state in states_for("ce"):
        for slot, meta in zip(state.slots, state.meta):
            if meta is not None and meta.live:
                assert slot is None


def test_refinements_hold(loaded):
    findings = check_refinements(loaded)
    assert findings == [], (
        "; ".join(f.message for f in findings[:3])
    )
    assert REFINEMENT_PAIRS == (("ceplus", "ce"), ("ce", "mesi"))


# ---------------------------------------------------------------------------
# the four seeded mutation drills, statically caught and concretized

#: mutation -> (finding kind that must appear, invariant name or None)
EXPECTED_CATCH = {
    "skip-invalidations": ("invariant", "swmr"),
    "blind-detection": ("detection-completeness", None),
    "ignore-region-tag": ("detection-soundness", None),
    "skip-self-invalidation": ("invariant", "arc-boundary"),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_caught_and_concretized(name):
    kind, invariant = EXPECTED_CATCH[name]
    mutation = MUTATIONS[name]
    loaded = load_instrumented(name)
    result = verify_protocol(mutation.protocol, mutation=name, loaded=loaded)
    assert kind in result.finding_counts, (
        f"{name}: expected {kind} findings, got {result.finding_counts}"
    )
    if invariant is not None:
        assert invariant in {
            f.invariant for f in result.findings if f.kind == "invariant"
        }

    # the symbolic counterexample must earn a concrete witness
    finding = next(f for f in result.findings if f.kind == kind)
    assert finding.kind in CONCRETIZABLE
    status = cross_validate(finding, name, REPLAY_KEYS[result.protocol])
    assert status == "replayed", (
        f"{name}: concretization came back {status!r} "
        f"(trace: {finding.trace!r})"
    )
    assert finding.trace and "step" in finding.trace


# ---------------------------------------------------------------------------
# CLI exit-code contract and docs drift


def test_cli_clean_exit_zero():
    assert main(["mesi", "moesi", "--no-refine", "--no-concretize"]) == 0


def test_cli_mutant_exit_three(capsys):
    code = main(["--mutate", "skip-invalidations", "--no-concretize"])
    assert code == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "invariant" in out and "[mutant skip-invalidations]" in out


def test_cli_fail_on_filters():
    # skip-invalidations produces only invariant findings; asking to
    # fail on a kind it never produces must exit clean
    assert main([
        "--mutate", "skip-invalidations", "--no-concretize",
        "--fail-on", "detection-soundness",
    ]) == 0
    assert main([
        "--mutate", "skip-invalidations", "--no-concretize",
        "--fail-on", "never",
    ]) == 0
    assert main([
        "--mutate", "skip-invalidations", "--no-concretize",
        "--fail-on", "invariant",
    ]) == EXIT_FINDINGS


def test_cli_rejects_bad_arguments():
    with pytest.raises(SystemExit):
        main(["--mutate", "no-such-mutation"])
    with pytest.raises(SystemExit):
        main(["no-such-protocol"])
    with pytest.raises(SystemExit):
        main(["--mutate", "blind-detection", "--write-docs"])


def test_cli_list_mutations(capsys):
    assert main(["--list-mutations"]) == 0
    out = capsys.readouterr().out
    for name in MUTATIONS:
        assert name in out


def test_cli_json_output(capsys):
    import json

    assert main(["mesi", "--format", "json", "--no-refine",
                 "--no-concretize"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["protocols"][0]["protocol"] == "mesi"
    assert payload["protocols"][0]["finding_counts"] == {}
    assert payload["unsound"] is False


def test_committed_docs_are_current(sweeps):
    """The drift gate CI runs, without re-sweeping: the committed
    ``docs/PROTOCOLS.md`` section must match today's generated tables."""
    generated = render_tables([sweeps[key] for key in PROTOVER_KEYS])
    document = docs_path().read_text()
    assert docs_current(document, generated), (
        "docs/PROTOCOLS.md is stale — run repro protover --write-docs"
    )


def test_splice_roundtrip():
    from repro.protover.tables import BEGIN, END, splice

    fresh = splice("# Title\n\nprose\n", f"{BEGIN}\nbody\n{END}")
    assert fresh.count(BEGIN) == 1 and fresh.startswith("# Title")
    replaced = splice(fresh, f"{BEGIN}\nnew body\n{END}")
    assert "new body" in replaced and "\nbody\n" not in replaced
    assert replaced.count(BEGIN) == 1


def test_guard_sites_cover_all_protocol_modules(loaded):
    modules = {site.module for site in loaded.sites.sites}
    # ceplus.py has no branch statements of its own (its AIM logic
    # lives in protocols/aim.py, which runs un-instrumented as shared
    # support code), so it contributes no guard sites
    assert {"base", "mesi", "ce", "arc"} <= modules
    rendered = loaded.sites[0].render()
    assert ".py:" in rendered and "[" in rendered
