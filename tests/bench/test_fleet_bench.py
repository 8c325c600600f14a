"""``bench fleet``: speedup report, anchor gate, BENCH_PERF.json merging."""

import json

import pytest

from repro.bench.cli import build_parser
from repro.bench.fleet import (
    check_fleet_anchor,
    fleet_spec,
    profile_name,
    run_fleet,
    shard_stats_table,
    write_fleet_entry,
)
from repro.bench.perf import PerfMeasurement, PerfRegressionError, PerfReport, write_report


@pytest.fixture(scope="module")
def tiny_report():
    return run_fleet(devices=24, shards=2, workers=2, duration_s=30.0)


class TestRunFleet:
    def test_report_shape_and_determinism(self, tiny_report):
        assert tiny_report.profile == "24x2"
        assert tiny_report.parallel.anchor == tiny_report.sequential.anchor
        tiny_report.verify_determinism()
        data = tiny_report.to_dict()
        assert data["devices"] == 24
        assert data["workers"] == 2
        assert data["committed"] == tiny_report.sequential.committed
        assert len(data["anchor"]) == 64
        assert len(data["shard_stats"]) == 2
        assert data["speedup"] > 0

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
        with pytest.raises(PerfRegressionError):
            broken.verify_determinism()

    def test_shard_stats_table_renders(self, tiny_report):
        rendered = shard_stats_table(
            tiny_report.to_dict()["shard_stats"], "stats"
        ).render()
        assert "barrier stall" in rendered
        assert "utilization" in rendered


class TestPersistence:
    def test_write_fleet_entry_merges_without_clobbering(self, tiny_report, tmp_path):
        path = tmp_path / "BENCH_PERF.json"
        path.write_text(json.dumps({"measurements": [1, 2], "fleet": {"9x9": {"anchor": "x"}}}))
        document = write_fleet_entry(tiny_report, path)
        assert document["measurements"] == [1, 2]
        assert document["fleet"]["9x9"] == {"anchor": "x"}
        assert document["fleet"]["24x2"]["anchor"] == tiny_report.anchor
        assert json.loads(path.read_text()) == document

    def test_perf_write_report_preserves_fleet_section(self, tiny_report, tmp_path):
        path = tmp_path / "BENCH_PERF.json"
        write_fleet_entry(tiny_report, path)
        report = PerfReport(
            measurements=[
                PerfMeasurement("commit-heavy", 4, 4, 0.1, 40.0, 0.5)
            ]
        )
        document = write_report(report, path)
        assert document["fleet"]["24x2"]["anchor"] == tiny_report.anchor
        assert json.loads(path.read_text())["fleet"]["24x2"]["devices"] == 24

    def test_perf_write_report_replaces_only_its_own_sections(self, tmp_path):
        """Regression: ``bench perf`` used to drop the committed chaos anchors."""
        path = tmp_path / "BENCH_PERF.json"
        others = {
            "chaos": {"scenarios": {"partition_heal": {"anchor": "c" * 64}}, "seed": 7},
            "fleet": {"500x2": {"anchor": "f" * 64, "devices": 500}},
            "query": {"speedup_indexed_vs_scan": {"10000": 88.0}},
        }
        path.write_text(json.dumps({"measurements": ["stale"], **others}))
        report = PerfReport(
            measurements=[PerfMeasurement("commit-heavy", 4, 4, 0.1, 40.0, 0.5)]
        )
        write_report(report, path)
        on_disk = json.loads(path.read_text())
        assert on_disk["measurements"] == report.to_dict()["measurements"]
        for section, before in others.items():
            assert json.dumps(on_disk[section], sort_keys=True) == json.dumps(
                before, sort_keys=True
            )

    def test_check_fleet_anchor_gate(self, tiny_report):
        good = {"fleet": {tiny_report.profile: {"anchor": tiny_report.anchor}}}
        assert check_fleet_anchor(tiny_report, good) == []
        bad = {"fleet": {tiny_report.profile: {"anchor": "0" * 64}}}
        failures = check_fleet_anchor(tiny_report, bad)
        assert failures and "anchor" in failures[0]
        # Absent profile or section: skipped, mirroring the perf gate.
        assert check_fleet_anchor(tiny_report, {}) == []
        assert check_fleet_anchor(tiny_report, {"fleet": {}}) == []


class TestCli:
    def test_fleet_flags_and_defaults(self):
        parser = build_parser()
        args = parser.parse_args(
            ["fleet", "--fleet-devices", "500", "--fleet-shards", "2", "--workers", "2"]
        )
        assert args.fleet_devices == 500
        assert args.fleet_shards == 2
        assert args.workers == 2
        assert args.fleet_duration == 200.0
        defaults = parser.parse_args(["fleet"])
        assert defaults.fleet_devices == 10_000
        assert defaults.workers == 4

    def test_canonical_spec_profile(self):
        spec = fleet_spec(devices=500, shards=2)
        assert profile_name(spec) == "500x2"
        assert spec.batch_config.max_message_count == 1
        assert spec.churn_fraction > 0
        assert spec.partition_windows
