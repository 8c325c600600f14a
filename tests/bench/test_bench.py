"""Tests for the benchmark harness: runner, reporting, CLI and figure shapes.

Figure-level shape assertions run with reduced request counts so the whole
suite stays fast; the full-size sweeps live in ``benchmarks/``.
"""

import pytest

from repro.bench.ablation_batch import run_batch_ablation
from repro.bench.ablation_concurrency import run_concurrency_ablation
from repro.bench.baseline_compare import run_baseline_comparison
from repro.bench.cli import build_parser, main
from repro.common.metrics import percentile
from repro.bench.fig1_throughput import run_fig1
from repro.bench.fig2_rpi import run_fig2
from repro.bench.fig3_energy import run_fig3
from repro.bench.ops_table import run_ops_table, to_table
from repro.bench.reporting import ResultTable, format_bytes, format_seconds, format_si
from repro.bench.runner import RunConfig, StoreDataRunner


# ------------------------------------------------------------------- reporting
def test_result_table_render_and_csv():
    table = ResultTable("Demo", ["a", "b"])
    table.add_row(1, 2.5)
    table.add_row("x", "y")
    table.add_note("a note")
    rendered = table.render()
    assert "Demo" in rendered and "a note" in rendered
    assert table.to_csv().splitlines()[0] == "a,b"
    assert table.to_dicts()[0] == {"a": 1, "b": 2.5}


def test_result_table_rejects_wrong_arity():
    table = ResultTable("t", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_formatting_helpers():
    assert format_si(1500) == "1.50 k"
    assert format_seconds(0.002).endswith("ms")
    assert format_seconds(2.0).endswith("s")
    assert format_seconds(float("nan")) == "n/a"
    assert format_bytes(2 * 1024 * 1024) == "2.0 MiB"


# ---------------------------------------------------------------------- runner
def test_runner_commits_every_request(desktop_deployment):
    runner = StoreDataRunner(desktop_deployment)
    result = runner.run(RunConfig(data_size_bytes=1024, request_count=12, concurrency=12))
    assert result.committed == 12
    assert result.failed == 0
    assert result.throughput_tps > 0
    assert len(result.response_times_s) == 12
    assert result.mean_response_s > 0
    assert result.p95_response_s >= result.mean_response_s * 0.5
    assert result.summary()["committed"] == 12.0


def test_runner_interval_estimate_grows_with_size(desktop_deployment):
    runner = StoreDataRunner(desktop_deployment)
    assert runner.estimate_item_interval(4 * 1024 * 1024) > runner.estimate_item_interval(1024)


def test_runner_percentiles_use_shared_helper(desktop_deployment):
    runner = StoreDataRunner(desktop_deployment)
    result = runner.run(RunConfig(data_size_bytes=1024, request_count=10, concurrency=10))
    assert result.p50_response_s == percentile(result.response_times_s, 50)
    assert result.p95_response_s == percentile(result.response_times_s, 95)
    assert result.p99_response_s == percentile(result.response_times_s, 99)
    summary = result.summary()
    assert summary["p50_response_s"] <= summary["p95_response_s"] <= summary["p99_response_s"]


def test_runner_clamps_concurrency_to_admission_cap(desktop_deployment):
    runner = StoreDataRunner(desktop_deployment)
    result = runner.run(
        RunConfig(
            data_size_bytes=512, request_count=12, concurrency=8,
            tenant="capped", max_in_flight=4,
        )
    )
    assert result.committed == 12
    assert result.failed == 0


def test_runner_supports_tenant_namespaces(desktop_deployment):
    runner = StoreDataRunner(desktop_deployment)
    result = runner.run(
        RunConfig(data_size_bytes=512, request_count=6, concurrency=6, tenant="bench-t")
    )
    assert result.committed == 6
    committed_keys = desktop_deployment.peers[0].history.keys()
    assert any(key.startswith("tenant/bench-t/") for key in committed_keys)


# --------------------------------------------------------------------- figures
def test_fig1_shape_throughput_falls_and_latency_rises():
    series = run_fig1(sizes=(1024, 1024 * 1024, 4 * 1024 * 1024), requests_per_size=15)
    throughputs = series.throughputs()
    responses = series.response_times()
    assert throughputs[0] > throughputs[-1]
    assert responses[-1] > responses[0]
    table = series.to_table("fig1")
    assert len(table.rows) == 3


def test_fig2_rpi_is_slower_than_desktop():
    sizes = (1024, 1024 * 1024)
    desktop = run_fig1(sizes=sizes, requests_per_size=12)
    rpi = run_fig2(sizes=sizes, requests_per_size=12)
    for d, r in zip(desktop.results, rpi.results):
        assert d.throughput_tps > r.throughput_tps
        assert r.mean_response_s > d.mean_response_s


def test_fig3_energy_matches_paper_shape():
    figure = run_fig3(
        load_levels={
            "idle (no HLF)": 0.0,
            "idle (HLF running)": 0.0,
            "peak load": 5.0,
        },
        interval_s=120.0,
    )
    idle_no_hlf = figure.report_for("idle (no HLF)")
    idle_hlf = figure.report_for("idle (HLF running)")
    peak = figure.report_for("peak load")
    # HLF idling barely adds power (paper: 2.71 W vs an idle RPi).
    assert idle_hlf.mean_watts - idle_no_hlf.mean_watts < 0.2
    assert idle_hlf.mean_watts == pytest.approx(2.71, abs=0.1)
    # Peak load stays a modest fraction above idle (paper: ~10.7 %, max 3.64 W).
    assert peak.mean_watts > idle_hlf.mean_watts
    assert peak.mean_watts < idle_hlf.mean_watts * 1.35
    assert peak.max_watts < 3.64 + 0.3
    table = figure.to_table()
    assert len(table.rows) == 3


def test_ops_table_covers_both_setups():
    results = run_ops_table(repeats=2)
    assert [r.setup for r in results] == ["desktop", "rpi"]
    desktop, rpi = results
    for operator in ("post", "get", "store_data", "get_data"):
        assert desktop.latencies_s[operator] > 0
        assert rpi.latencies_s[operator] > desktop.latencies_s[operator]
    rendered = to_table(results).render()
    assert "store_data" in rendered


def test_baseline_comparison_shape():
    report = run_baseline_comparison(requests=8, pow_difficulty_bits=22)
    hyperprov = report.entry("hyperprov")
    pow_chain = report.entry("provchain-pow")
    central = report.entry("central-db")
    # Permissioned blockchain beats PoW on throughput and power.
    assert hyperprov.throughput_tps > pow_chain.throughput_tps
    assert hyperprov.mean_power_w < pow_chain.mean_power_w
    # The centralized DB is fastest but not tamper evident.
    assert central.throughput_tps > hyperprov.throughput_tps
    assert not central.tamper_evident
    assert hyperprov.tamper_evident and pow_chain.tamper_evident
    assert len(report.to_table().rows) == 3


def test_batch_ablation_larger_batches_do_not_hurt_throughput():
    ablation = run_batch_ablation(batch_sizes=(1, 20), requests=20)
    assert len(ablation.results) == 2
    small, large = ablation.results
    assert large.throughput_tps >= small.throughput_tps * 0.8
    assert len(ablation.to_table().rows) == 2


def test_concurrency_ablation_deeper_pipelines_raise_throughput():
    ablation = run_concurrency_ablation(depths=(1, 16), requests=18)
    shallow, deep = ablation.results
    assert deep.throughput_tps > shallow.throughput_tps
    assert ablation.speedup > 1.0
    assert len(ablation.to_table().rows) == 2


# ------------------------------------------------------------------------- cli
def test_cli_parser_accepts_known_experiments():
    parser = build_parser()
    args = parser.parse_args(["fig1", "--requests", "5"])
    assert args.experiments == ["fig1"]
    assert args.requests == 5
    assert args.concurrency is None


def test_cli_exposes_concurrency_and_requests():
    parser = build_parser()
    args = parser.parse_args(["ablation-concurrency", "--requests", "8", "--concurrency", "4"])
    assert args.experiments == ["ablation-concurrency"]
    assert args.requests == 8
    assert args.concurrency == 4
    with pytest.raises(SystemExit):
        parser.parse_args(["fig1", "--concurrency", "0"])


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figx"])


def test_cli_main_runs_ops_experiment(capsys):
    exit_code = main(["ops", "--requests", "20"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "operator" in captured.out


# ----------------------------------------------------------- sharding ablation
def test_sharding_ablation_scales_write_throughput():
    from repro.bench.ablation_sharding import run_sharding_ablation

    ablation = run_sharding_ablation(shard_counts=(1, 2), requests=60)
    assert [r.committed for r in ablation.results] == [60, 60]
    assert ablation.speedup > 1.2  # two ordering machines beat one
    rendered = ablation.to_table().render()
    assert "shards" in rendered


def test_cli_exposes_shards_and_scheduler_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["ablation-sharding", "--shards", "2", "--scheduler", "fair-share"]
    )
    assert args.shards == 2
    assert args.scheduler == "fair-share"
    with pytest.raises(SystemExit):
        parser.parse_args(["ablation-sharding", "--scheduler", "lifo"])


def test_cli_main_runs_sharding_experiment(capsys):
    exit_code = main(["ablation-sharding", "--shards", "2", "--requests", "4"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "tenant isolation" in captured.out
    assert "throughput scaling" in captured.out
