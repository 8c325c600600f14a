"""Chaos bench: scenario smoke and the read-only anchor gate."""

import json
from pathlib import Path

import pytest

from repro.bench import anchors
from repro.bench.anchors import GateError
from repro.bench.chaos import (
    SCENARIOS,
    ChaosBenchReport,
    ChaosInvariantError,
    ChaosScenarioResult,
    run_chaos,
)
from repro.bench.cli import main

COMMITTED = Path(__file__).resolve().parents[2] / "ANCHORS.json"


@pytest.fixture(scope="module")
def report():
    # One shared smoke run; scenarios assert their invariants internally.
    return run_chaos(smoke=True)


class TestScenarios:
    def test_all_registered_scenarios_run_and_anchor(self, report):
        assert [r.name for r in report.scenarios] == list(SCENARIOS)
        assert len(report.scenarios) == 5
        for result in report.scenarios:
            assert len(result.anchor) == 64
            assert result.invariants

    def test_link_degrade_counts_drops_and_duplicates(self, report):
        invariants = report.scenario("link_degrade").invariants
        assert invariants["dropped"] >= 2
        assert invariants["duplicated"] >= 2
        assert invariants["degraded_window_s"] == pytest.approx(2.0)

    def test_scenarios_are_deterministic_across_calls(self, report):
        again = run_chaos(smoke=True)
        assert [r.anchor for r in again.scenarios] == [
            r.anchor for r in report.scenarios
        ]

    def test_seed_changes_the_anchors(self, report):
        shifted = SCENARIOS["orderer_stall"](report.seed + 1)
        assert shifted.anchor != report.scenario("orderer_stall").anchor


def anchors_file(tmp_path, report, **overrides):
    """An anchors file committing ``report``'s anchors (or ``overrides``)."""
    chaos = {
        r.name: {"inputs": {"seed": report.seed}, "anchor": r.anchor}
        for r in report.scenarios
    }
    chaos.update(overrides)
    path = tmp_path / "anchors.json"
    path.write_text(json.dumps({"fleet": {"keep": 1}, "chaos": chaos}))
    return path


class TestPersistence:
    """``--anchors`` names a file the gate reads and never writes."""

    def test_gated_run_leaves_the_anchors_file_untouched(self, tmp_path, capsys):
        # A copy of the committed file: the smoke run must reproduce all
        # five committed anchors and change no byte of it.
        path = tmp_path / "ANCHORS.json"
        path.write_bytes(COMMITTED.read_bytes())
        assert main(["chaos", "--smoke", "--anchors", str(path)]) == 0
        assert "every scenario anchor matches" in capsys.readouterr().out
        assert path.read_bytes() == COMMITTED.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ANCHORS.json"]

    def test_missing_or_corrupt_anchors_file_fails_the_gate(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["chaos", "--smoke", "--anchors", str(missing)]) == 1
        assert "unreadable" in capsys.readouterr().out
        assert not missing.exists()
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        assert main(["chaos", "--smoke", "--anchors", str(corrupt)]) == 1
        assert "unreadable" in capsys.readouterr().out
        assert corrupt.read_text() == "{not json"


class TestAnchorGate:
    def test_matching_anchors_pass(self, report, tmp_path):
        committed = anchors.load(anchors_file(tmp_path, report))
        for result in report.scenarios:
            anchors.check(
                committed, "chaos", result.name, {"seed": report.seed}, result.anchor
            )

    def test_changed_anchor_fails_that_scenario(self, report, tmp_path, capsys):
        drifted = {"inputs": {"seed": report.seed}, "anchor": "0" * 64}
        path = anchors_file(tmp_path, report, partition_heal=drifted)
        assert main(["chaos", "--smoke", "--anchors", str(path)]) == 1
        failures = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("  - ")
        ]
        assert len(failures) == 1
        assert "partition_heal: virtual time moved" in failures[0]
        assert "0" * 64 in failures[0]
        assert report.scenario("partition_heal").anchor in failures[0]

    def test_absent_scenario_and_absent_section_fail_the_gate(self, report):
        """Regression: absent entries used to be skipped, so a gate pointed
        at the wrong file (or a renamed scenario) passed vacuously."""
        result = report.scenarios[0]
        for committed in ({}, {"chaos": {}}):
            with pytest.raises(GateError, match="no committed anchor"):
                anchors.check(
                    committed, "chaos", result.name,
                    {"seed": report.seed}, result.anchor,
                )

    def test_other_seed_is_a_missing_anchor_not_drift(self, capsys):
        """Regression: ``--chaos-seed 7`` against seed-42 anchors used to
        fail as "virtual time moved"."""
        argv = ["chaos", "--smoke", "--chaos-seed", "7", "--anchors", str(COMMITTED)]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert out.count("no committed anchor for {'seed': 7}") == len(SCENARIOS)
        assert "virtual time moved" not in out

    def test_double_pass_mismatch_fails_the_full_profile(self, monkeypatch):
        calls = {"count": 0}

        def flaky(seed):
            calls["count"] += 1
            return ChaosScenarioResult(
                "flaky", f"{calls['count']:064d}", 0.0, {"writes": 0}
            )

        monkeypatch.setattr("repro.bench.chaos.SCENARIOS", {"flaky": flaky})
        with pytest.raises(ChaosInvariantError, match="non-deterministic"):
            run_chaos(smoke=False)

    def test_report_table_renders(self, report):
        rendered = ChaosBenchReport(
            seed=report.seed, repeats=report.repeats, scenarios=report.scenarios
        ).to_table().render()
        for name in SCENARIOS:
            assert name in rendered
