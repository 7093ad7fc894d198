"""Tests for conflict summaries, the conflicts CLI, and multi-seed stats."""

import pytest

from repro.common.config import ProtocolKind, SystemConfig
from repro.common.errors import ConflictRecord
from repro.core.api import run_program
from repro.harness.multiseed import SeedStats, aggregate_normalized, multiseed_table
from repro.synth import build_workload
from repro.tools.view import conflicts_main, kind_mix, summarize, summary_table


def record(line=0x1000, cycle=5, first=0, second=1, fw=True, sw=True, via="fwd",
           mask=0xFF, r1=0, r2=0):
    return ConflictRecord(
        cycle=cycle, line_addr=line, byte_mask=mask,
        first_core=first, second_core=second,
        first_region=r1, second_region=r2,
        first_was_write=fw, second_was_write=sw, detected_by=via,
    )


class TestSummarize:
    def test_groups_by_line(self):
        conflicts = [record(line=0x40), record(line=0x40, cycle=9),
                     record(line=0x80, sw=False)]
        by_line = summarize(conflicts)
        assert set(by_line) == {0x40, 0x80}
        assert by_line[0x40].count == 2
        assert by_line[0x80].kinds == {"W-R": 1}

    def test_first_cycle_is_minimum(self):
        conflicts = [record(cycle=9), record(cycle=3), record(cycle=7)]
        assert summarize(conflicts)[0x1000].first_cycle == 3

    def test_byte_masks_union(self):
        conflicts = [record(mask=0x0F), record(mask=0xF0)]
        assert summarize(conflicts)[0x1000].byte_mask == 0xFF

    def test_cores_collected(self):
        conflicts = [record(first=0, second=1), record(first=2, second=1)]
        assert summarize(conflicts)[0x1000].cores == {0, 1, 2}

    def test_kind_mix(self):
        conflicts = [record(), record(sw=False), record(fw=False)]
        assert kind_mix(conflicts) == {"W-W": 1, "W-R": 1, "R-W": 1}

    def test_table_rendering(self):
        table = summary_table([record(), record(line=0x80)])
        assert len(table.rows) == 2
        assert table.rows[0][0] == "0x80" or table.rows[1][0] == "0x80"

    def test_empty(self):
        assert summarize([]) == {}
        assert kind_mix([]) == {}
        assert summary_table([]).rows == []


class TestSummaryOnRealRun:
    def test_matches_raw_records(self):
        program = build_workload("racy-writers", num_threads=4, seed=1, scale=0.1)
        result = run_program(SystemConfig(num_cores=4, protocol="arc"), program)
        assert result.num_conflicts > 0
        by_line = summarize(result.stats.conflicts)
        assert sum(s.count for s in by_line.values()) == result.num_conflicts


class TestConflictsCli:
    def test_reports_conflicts(self, capsys):
        rc = conflicts_main(
            ["racy-writers", "--protocol", "arc", "--threads", "4",
             "--scale", "0.1", "--verbose"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "region conflict exception" in out
        assert "Region conflicts by line" in out
        assert "W-W" in out

    def test_silent_on_clean_workload(self, capsys):
        rc = conflicts_main(
            ["lock-counter", "--protocol", "ce", "--threads", "4",
             "--scale", "0.05"]
        )
        assert rc == 0
        assert "0 region conflict" in capsys.readouterr().out


class TestMultiseed:
    def test_aggregate_statistics(self):
        stats = aggregate_normalized(
            "lock-counter", "cycles", num_threads=4, scale=0.05, seeds=(1, 2)
        )
        for proto in (ProtocolKind.CE, ProtocolKind.CEPLUS, ProtocolKind.ARC):
            s = stats[proto]
            assert isinstance(s, SeedStats)
            assert s.minimum <= s.mean <= s.maximum
            assert s.spread >= 0

    def test_single_seed_zero_spread(self):
        stats = aggregate_normalized(
            "false-sharing", "flit_hops", num_threads=4, scale=0.05, seeds=(7,)
        )
        for s in stats.values():
            assert s.spread == 0

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            aggregate_normalized("lock-counter", "cycles", seeds=())

    def test_table(self):
        table = multiseed_table(
            "lock-counter", "cycles", num_threads=4, scale=0.05, seeds=(1, 2)
        )
        assert table.column("protocol") == ["ce", "ce+", "arc"]
        assert all(v >= 0 for v in table.column("spread"))
