"""``bench fleet``: speedup report and the read-only anchor gate."""

import json

import pytest

from repro.bench import anchors
from repro.bench.anchors import GateError
from repro.bench.cli import build_parser, main
from repro.bench.fleet import (
    anchor_inputs,
    fleet_spec,
    profile_name,
    run_fleet,
    shard_stats_table,
)

TINY = ["fleet", "--fleet-devices", "24", "--fleet-shards", "2", "--workers", "2"]


@pytest.fixture(scope="module")
def tiny_report():
    return run_fleet(devices=24, shards=2, workers=2)


class TestRunFleet:
    def test_report_shape_and_determinism(self, tiny_report):
        assert tiny_report.profile == "24x2"
        assert tiny_report.parallel.anchor == tiny_report.sequential.anchor
        tiny_report.verify_determinism()
        assert anchor_inputs(tiny_report.spec) == {
            "devices": 24, "shards": 2, "duration_s": 200.0, "seed": 42,
        }
        assert tiny_report.parallel.workers == 2
        assert tiny_report.parallel.committed == tiny_report.sequential.committed > 0
        assert len(tiny_report.anchor) == 64
        assert len(tiny_report.parallel.shard_stats) == 2
        assert tiny_report.speedup > 0

    def test_mismatched_anchor_fails_loudly(self, tiny_report):
        import dataclasses

        drifted = dataclasses.replace(
            tiny_report.parallel,
            lines_by_site={
                site: list(lines) + ["s0;devX;tx-bogus;0.0;VALID;1.0;9"]
                for site, lines in tiny_report.parallel.lines_by_site.items()
            },
        )
        broken = type(tiny_report)(
            spec=tiny_report.spec,
            parallel=drifted,
            sequential=tiny_report.sequential,
        )
        with pytest.raises(GateError):
            broken.verify_determinism()

    def test_speedup_note_carries_the_cost_per_post_of_both_runs(self, tiny_report):
        notes = [line for line in tiny_report.to_table().render().splitlines()
                 if line.startswith("note: wall time per committed post")]
        assert len(notes) == 1
        assert "sequential" in notes[0] and "busy time summed" in notes[0]

    def test_shard_stats_table_renders(self, tiny_report):
        rendered = shard_stats_table(
            tiny_report.parallel.shard_stats, "stats"
        ).render()
        assert "barrier stall" in rendered
        assert "utilization" in rendered


def anchors_file(tmp_path, report, **entry):
    """An anchors file committing ``report`` (fields overridden by ``entry``)."""
    committed = {"inputs": anchor_inputs(report.spec), "anchor": report.anchor}
    committed.update(entry)
    path = tmp_path / "anchors.json"
    path.write_text(json.dumps({"fleet": {report.profile: committed}}))
    return path


class TestPersistence:
    """Nothing persists: the gate reads the anchors file, never writes it."""

    def test_check_fleet_anchor_gate(self, tiny_report):
        inputs = anchor_inputs(tiny_report.spec)
        profile = tiny_report.profile
        good = {"fleet": {profile: {"inputs": inputs, "anchor": tiny_report.anchor}}}
        anchors.check(good, "fleet", profile, inputs, tiny_report.anchor)
        bad = {"fleet": {profile: {"inputs": inputs, "anchor": "0" * 64}}}
        with pytest.raises(GateError, match="virtual time moved"):
            anchors.check(bad, "fleet", profile, inputs, tiny_report.anchor)
        # Absent profile or section: a failure, not a silent skip.
        for absent in ({}, {"fleet": {}}):
            with pytest.raises(GateError, match="no committed anchor"):
                anchors.check(absent, "fleet", profile, inputs, tiny_report.anchor)

    def test_cli_gate_passes_on_the_committed_anchor(
        self, tiny_report, tmp_path, capsys
    ):
        path = anchors_file(tmp_path, tiny_report)
        before = path.read_bytes()
        assert main(TINY + ["--anchors", str(path)]) == 0
        assert "determinism anchor matches" in capsys.readouterr().out
        assert path.read_bytes() == before

    def test_cli_gate_fails_without_a_committed_entry(self, tmp_path, capsys):
        """Regression: a profile with no committed anchor used to print
        "determinism anchor matches" and exit 0."""
        path = tmp_path / "anchors.json"
        path.write_text(json.dumps({"fleet": {"500x2": {"anchor": "f" * 64}}}))
        assert main(TINY + ["--anchors", str(path)]) == 1
        out = capsys.readouterr().out
        assert "fleet 24x2: no committed anchor for" in out
        assert "'devices': 24" in out and "'duration_s': 200.0" in out
        assert "matches" not in out

    def test_cli_gate_other_duration_is_a_missing_anchor_not_drift(
        self, tiny_report, tmp_path, capsys
    ):
        """Regression: the gate keyed on ``{devices}x{shards}`` only, so a
        run at another duration failed as "virtual time moved"."""
        shorter = dict(anchor_inputs(tiny_report.spec), duration_s=30.0)
        path = anchors_file(tmp_path, tiny_report, inputs=shorter)
        assert main(TINY + ["--anchors", str(path)]) == 1
        out = capsys.readouterr().out
        assert "no committed anchor for" in out and "'duration_s': 200.0" in out
        assert "virtual time moved" not in out


class TestCli:
    def test_fleet_flags_and_defaults(self):
        parser = build_parser()
        args = parser.parse_args(
            ["fleet", "--fleet-devices", "500", "--fleet-shards", "2", "--workers", "2"]
        )
        assert args.fleet_devices == 500
        assert args.fleet_shards == 2
        assert args.workers == 2
        defaults = parser.parse_args(["fleet"])
        assert defaults.fleet_devices == 10_000
        assert defaults.workers == 4

    def test_canonical_spec_profile(self):
        spec = fleet_spec(devices=500, shards=2)
        assert profile_name(spec) == "500x2"
        assert spec.batch_config.max_message_count == 1
        assert spec.churn_fraction > 0
        assert spec.partition_windows
