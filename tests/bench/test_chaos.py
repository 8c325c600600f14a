"""Chaos bench: the scenario rows, each invariant failing on a broken run, and the anchor gate."""

import itertools
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api.protocol import StoreRequest
from repro.bench import anchors
from repro.bench.anchors import GateError
from repro.bench.chaos import (
    CHAOS_SEED,
    SCENARIOS,
    V1,
    ChaosInvariantError,
    ChaosScenario,
    backlog_drains,
    chain_breaks_only_on,
    committed_after,
    continuous_query_exactly_once,
    exactly_once_everywhere,
    fault_counters_moved,
    latency_bounded,
    quiesced,
    read_is,
    run_chaos,
    run_scenario,
    slowest_inside,
    state_matches_clean_run,
)
from repro.bench.cli import main

COMMITTED = Path(__file__).resolve().parents[2] / "ANCHORS.json"
ROWS = {row.name: row for row in SCENARIOS}


@pytest.fixture(scope="module")
def report():
    # One shared double-pass run; every row's invariants are checked inside it.
    return run_chaos()


def runs_by_name(report):
    return {run.scenario.name: run for run in report.scenarios}


def fresh(name, **changes):
    """An unchecked run of one row (with ``changes`` applied), free to break."""
    return run_scenario(replace(ROWS[name], **changes), CHAOS_SEED)


def handle_of(run, label):
    return dict(run.writes)[label]


class TestScenarios:
    def test_all_registered_scenarios_run_and_anchor(self, report):
        assert [run.scenario.name for run in report.scenarios] == list(ROWS)
        assert len(report.scenarios) == 5
        for run in report.scenarios:
            assert len(run.anchor) == 64
            assert run.scenario.invariants
            assert run.counts()["writes"] >= 6

    def test_link_degrade_counts_drops_and_duplicates(self, report):
        counts = runs_by_name(report)["link_degrade"].counts()
        assert counts["dropped"] >= 2
        assert counts["duplicated"] >= 2
        assert counts["faults"] == 1

    def test_counts_are_taken_from_the_run(self, report):
        faulty = runs_by_name(report)["partition_heal"].counts()
        assert faulty["stale_reads"] == 1
        assert faulty["deliveries"] == faulty["writes"] == 8
        clean = fresh("partition_heal", faults=()).counts()
        assert clean["stale_reads"] == 0 and clean["faults"] == 0

    def test_scenarios_are_deterministic_across_calls(self, report):
        again = run_chaos()
        assert [r.anchor for r in again.scenarios] == [r.anchor for r in report.scenarios]

    def test_seed_changes_the_anchors(self, report):
        shifted = runs_by_name(run_chaos(seed=report.seed + 1))["orderer_stall"]
        assert shifted.anchor != runs_by_name(report)["orderer_stall"].anchor


class TestInvariantsFailOnBrokenRuns:
    """Each invariant holds on its row's run and raises once the run is broken."""

    def test_quiesced_fails_on_a_run_that_stopped_in_deadlock(self):
        run = fresh("orderer_stall")
        quiesced(run)
        run.stop_reason = "deadlock"
        with pytest.raises(ChaosInvariantError, match="did not quiesce"):
            quiesced(run)

    def test_exactly_once_fails_on_a_duplicated_commit(self):
        run = fresh("link_degrade")
        exactly_once_everywhere(run)
        run.writes.append(run.writes[0])
        with pytest.raises(ChaosInvariantError, match="commits twice"):
            exactly_once_everywhere(run)

    def test_exactly_once_fails_on_a_write_a_peer_never_committed(self):
        run = fresh("link_degrade")
        label, handle = run.writes[0]
        run.writes[0] = (label, replace(handle, tx_id="tx-never-ordered"))
        with pytest.raises(ChaosInvariantError, match="lacks"):
            exactly_once_everywhere(run)

    def test_committed_after_fails_on_a_write_committed_inside_the_cut(self):
        run = fresh("partition_heal")
        check = committed_after(("pp0", "pp1", "pp2"), 7.0)
        check(run)
        handle_of(run, "pp1").committed_at = 6.5
        with pytest.raises(ChaosInvariantError, match="before 7.0"):
            check(run)
        with pytest.raises(ChaosInvariantError, match="never submitted"):
            committed_after(("pp9",), 7.0)(run)

    def test_read_is_fails_on_a_stale_read_marked_fresh(self):
        run = fresh("partition_heal")
        check = read_is("during", V1, True)
        check(run)
        run.reads["during"] = (V1, False)
        with pytest.raises(ChaosInvariantError, match="'during'"):
            check(run)

    def test_continuous_query_fails_on_a_double_or_a_missed_delivery(self):
        run = fresh("partition_heal")
        continuous_query_exactly_once(run)
        delivered = run.observed["deliveries"]
        delivered.append(delivered[0])
        with pytest.raises(ChaosInvariantError, match="delivered twice"):
            continuous_query_exactly_once(run)
        del delivered[-2:]
        with pytest.raises(ChaosInvariantError, match="never delivered"):
            continuous_query_exactly_once(run)

    def test_chain_breaks_only_on_fails_when_an_honest_peer_is_rewritten(self):
        run = fresh("byzantine_tamper")
        check = chain_breaks_only_on(("peer0.org1", "peer1.org2"))
        check(run)
        honest = run.deployment.peers[2]
        honest.tamper(1, 0).args.append("forged")
        with pytest.raises(ChaosInvariantError, match=honest.name):
            check(run)

    def test_state_matches_clean_run_fails_on_a_tampered_write_in_a_world_state(self):
        run = fresh("byzantine_tamper")
        state_matches_clean_run(run)
        peer = run.deployment.peers[1]
        peer.world_state.put("bz0", '{"checksum": "forged"}', peer.world_state.get("bz0").version)
        with pytest.raises(ChaosInvariantError, match="world state diverged"):
            state_matches_clean_run(run)

    def test_state_matches_clean_run_fails_when_faults_move_the_commit_log(self):
        run = fresh("orderer_stall")
        with pytest.raises(ChaosInvariantError, match="commit times differ"):
            state_matches_clean_run(run)

    def test_backlog_drains_fails_on_a_backlog_that_never_drains(self):
        run = fresh("orderer_stall")
        backlog_drains(run)
        run.deployment.fabric.shard(0).orderer.stall()
        request = StoreRequest(key="stuck", checksum=V1, location="edge://chaos", size_bytes=256)
        run.deployment.client.as_store().submit(request)
        assert run.deployment.fabric.flush_and_drain().stop_reason == "deadlock"
        with pytest.raises(ChaosInvariantError, match="still holds 1"):
            backlog_drains(run)

    def test_backlog_drains_fails_when_the_probe_saw_no_backlog(self):
        run = fresh("orderer_stall", faults=())
        with pytest.raises(ChaosInvariantError, match="no backlog while stalled"):
            backlog_drains(run)

    def test_latency_bounded_fails_on_a_starved_tenant(self):
        run = fresh("churn_fair_share")
        check = latency_bounded("alpha:", 3.0)
        check(run)
        handle = handle_of(run, "alpha:a2")
        handle.committed_at = handle.submitted_at + 3.5
        with pytest.raises(ChaosInvariantError, match="'alpha:a2' took 3.500s"):
            check(run)

    def test_slowest_inside_fails_when_an_outside_write_is_as_slow(self):
        run = fresh("link_degrade")
        check = slowest_inside(2.0, 4.0)
        check(run)
        handle_of(run, "ld-c0").committed_at += 10.0
        with pytest.raises(ChaosInvariantError, match="not above"):
            check(run)

    def test_fault_counters_moved_fails_when_the_link_was_never_degraded(self):
        check = fault_counters_moved(2)
        check(fresh("link_degrade"))
        with pytest.raises(ChaosInvariantError, match="dropped=0.0 duplicated=0.0"):
            check(fresh("link_degrade", faults=()))


def anchors_file(tmp_path, report, **overrides):
    """An anchors file committing ``report``'s anchors (or ``overrides``)."""
    chaos = {
        r.scenario.name: {"inputs": {"seed": report.seed}, "anchor": r.anchor}
        for r in report.scenarios
    }
    chaos.update(overrides)
    path = tmp_path / "anchors.json"
    path.write_text(json.dumps({"fleet": {"keep": 1}, "chaos": chaos}))
    return path


class TestPersistence:
    """``--anchors`` names a file the gate reads and never writes."""

    def test_gated_run_leaves_the_anchors_file_untouched(self, tmp_path, capsys):
        # A copy of the committed file: the run must reproduce all five
        # committed anchors and change no byte of it.
        path = tmp_path / "ANCHORS.json"
        path.write_bytes(COMMITTED.read_bytes())
        assert main(["chaos", "--anchors", str(path)]) == 0
        assert "every scenario anchor matches" in capsys.readouterr().out
        assert path.read_bytes() == COMMITTED.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ANCHORS.json"]

    def test_missing_or_corrupt_anchors_file_fails_the_gate(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["chaos", "--anchors", str(missing)]) == 1
        assert "unreadable" in capsys.readouterr().out
        assert not missing.exists()
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        assert main(["chaos", "--anchors", str(corrupt)]) == 1
        assert "unreadable" in capsys.readouterr().out
        assert corrupt.read_text() == "{not json"

    @pytest.mark.parametrize("flag", [["--smoke"], ["--chaos-seed", "7"]])
    def test_removed_flags_are_rejected(self, flag):
        with pytest.raises(SystemExit):
            main(["chaos", *flag])


class TestAnchorGate:
    def test_matching_anchors_pass(self, report, tmp_path):
        committed = anchors.load(anchors_file(tmp_path, report))
        for run in report.scenarios:
            anchors.check(
                committed, "chaos", run.scenario.name, {"seed": report.seed}, run.anchor
            )

    def test_changed_anchor_fails_that_scenario(self, report, tmp_path, capsys):
        drifted = {"inputs": {"seed": report.seed}, "anchor": "0" * 64}
        path = anchors_file(tmp_path, report, partition_heal=drifted)
        assert main(["chaos", "--anchors", str(path)]) == 1
        failures = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("  - ")
        ]
        assert len(failures) == 1
        assert "partition_heal: virtual time moved" in failures[0]
        assert "0" * 64 in failures[0]
        assert runs_by_name(report)["partition_heal"].anchor in failures[0]

    def test_absent_scenario_and_absent_section_fail_the_gate(self, report):
        """Regression: absent entries used to be skipped, so a gate pointed
        at the wrong file (or a renamed scenario) passed vacuously."""
        run = report.scenarios[0]
        for committed in ({}, {"chaos": {}}):
            with pytest.raises(GateError, match="no committed anchor"):
                anchors.check(
                    committed, "chaos", run.scenario.name,
                    {"seed": report.seed}, run.anchor,
                )

    def test_double_pass_mismatch_fails_the_run(self, monkeypatch):
        passes = itertools.count()
        flaky = ChaosScenario(
            name="flaky", faults=(), writes=(), invariants=(),
            anchor_lines=(lambda run: [f"pass {next(passes)}"],),
        )
        monkeypatch.setattr("repro.bench.chaos.SCENARIOS", (flaky,))
        with pytest.raises(ChaosInvariantError, match="non-deterministic"):
            run_chaos()

    def test_report_table_renders(self, report):
        rendered = report.to_table().render()
        for row in SCENARIOS:
            assert row.name in rendered
        for name in ("read_is(during)", "state_matches_clean_run", "backlog_drains"):
            assert name in rendered
        assert "stale_reads=1" in rendered
