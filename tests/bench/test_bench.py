"""Tests for the benchmark harness: runner, reporting, CLI and figure shapes.

The shape tests are the repo's paper-shape oracles, one per experiment.
Request counts are whole blocks (multiples of the orderer's 10-message
block) so no run's makespan is parked on the final block's batch timeout.
"""

import pytest

from repro.bench.baseline_compare import run_baseline_comparison
from repro.bench.cli import EXPERIMENTS, build_parser, main
from repro.common.metrics import percentile
from repro.bench.fig3_energy import run_fig3
from repro.bench.ops_table import run_ops_table, to_table
from repro.bench.reporting import ResultTable, format_bytes, format_seconds, format_si
from repro.bench.resource_usage import run_resource_usage
from repro.bench.runner import RunConfig, StoreDataRunner
from repro.bench.sweeps import BATCH_SWEEP_TIMEOUT_S, COLUMNS, SWEEPS, run_sweep


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


# ---------------------------------------------------------------- sweep table
def test_sweep_table_is_well_formed():
    for name, sweep in SWEEPS.items():
        assert name in EXPERIMENTS
        assert set(sweep.columns) <= set(COLUMNS), name
        assert sweep.values and sweep.requests > 0, name
    titles = [sweep.title for sweep in SWEEPS.values()]
    assert len(set(titles)) == len(titles)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_points_are_independent(name):
    """Fresh deployment per point: a value measured alone equals the same
    value inside the full sweep, and every point commits its whole load."""
    sweep = SWEEPS[name]
    full = run_sweep(sweep, requests=8)
    assert full.values == list(sweep.values)
    for result in full.results:
        assert result.failed == 0
        assert result.committed == result.config.request_count
    alone = run_sweep(sweep, requests=8, values=sweep.values[-1:])
    assert alone.results[0].summary() == full.results[-1].summary()
    assert len(full.to_table().rows) == len(sweep.values)


# --------------------------------------------------------------------- figures
@pytest.fixture(scope="module")
def fig1_series():
    return run_sweep(SWEEPS["fig1"], requests=20)


def test_fig1_shape_throughput_falls_and_latency_rises(fig1_series):
    throughputs = [r.throughput_tps for r in fig1_series.results]
    responses = [r.mean_response_s for r in fig1_series.results]
    # The largest items are clearly slower than the smallest.
    assert throughputs[-1] < throughputs[0] * 0.8
    assert responses[-1] > responses[0] * 1.2
    # Monotone within a small tolerance for simulation jitter.
    for previous, current in zip(throughputs, throughputs[1:]):
        assert current <= previous * 1.05
    for previous, current in zip(responses, responses[1:]):
        assert current >= previous * 0.95
    assert all(r.failed == 0 for r in fig1_series.results)
    assert len(fig1_series.to_table().rows) == len(SWEEPS["fig1"].values)


def test_fig2_rpi_is_slower_than_desktop(fig1_series):
    rpi = run_sweep(SWEEPS["fig2"], requests=20)
    # Same trend as Fig. 1 ...
    assert rpi.results[-1].throughput_tps < rpi.results[0].throughput_tps
    assert rpi.results[-1].mean_response_s > rpi.results[0].mean_response_s
    assert all(r.failed == 0 for r in rpi.results)
    # ... at a fraction of the desktop's absolute performance.
    for d, r in zip(fig1_series.results, rpi.results):
        assert d.throughput_tps > 3.0 * r.throughput_tps
        assert r.mean_response_s > d.mean_response_s


def test_fig3_energy_matches_paper_shape():
    figure = run_fig3(interval_s=120.0)
    idle_no_hlf = figure.report_for("idle (no HLF)")
    idle_hlf = figure.report_for("idle (HLF running)")
    peak = figure.report_for("peak load")
    # HLF idling barely adds power (paper: 2.71 W vs an idle RPi).
    assert idle_hlf.mean_watts - idle_no_hlf.mean_watts < 0.2
    assert idle_hlf.mean_watts == pytest.approx(2.71, abs=0.1)
    # Peak load stays a modest fraction above idle (paper: ~10.7 %, max 3.64 W).
    increase = (peak.mean_watts - idle_no_hlf.mean_watts) / idle_no_hlf.mean_watts
    assert 0.02 < increase < 0.35
    assert peak.mean_watts < idle_hlf.mean_watts * 1.35
    assert peak.max_watts < 3.9
    # Power rises monotonically with the load level.
    means = [report.mean_watts for report in figure.intervals]
    assert means == sorted(means)
    assert len(figure.to_table().rows) == 5


def test_ops_table_covers_both_setups():
    results = run_ops_table(repeats=2)
    assert [r.setup for r in results] == ["desktop", "rpi"]
    desktop, rpi = results
    assert {"post", "get", "store_data", "get_data"} <= set(desktop.latencies_s)
    for operator, desktop_latency in desktop.latencies_s.items():
        assert desktop_latency > 0
        assert rpi.latencies_s[operator] > desktop_latency, operator
    # Reads (one peer, no ordering) are cheaper than writes (endorsement +
    # ordering + commit) on both setups.
    for setup in results:
        assert setup.latencies_s["get"] < setup.latencies_s["post"]
        assert setup.latencies_s["check_hash"] < setup.latencies_s["store_data"]
    rendered = to_table(results).render()
    assert "store_data" in rendered


def test_baseline_comparison_shape():
    report = run_baseline_comparison(requests=8, pow_difficulty_bits=22)
    hyperprov = report.entry("hyperprov")
    pow_chain = report.entry("provchain-pow")
    central = report.entry("central-db")
    # Permissioned blockchain beats PoW on throughput (by a wide margin) and power.
    assert hyperprov.throughput_tps > 3 * pow_chain.throughput_tps
    assert hyperprov.mean_power_w < pow_chain.mean_power_w
    # The centralized DB is fastest but not tamper evident.
    assert central.throughput_tps > hyperprov.throughput_tps
    assert not central.tamper_evident
    assert hyperprov.tamper_evident and pow_chain.tamper_evident
    assert len(report.to_table().rows) == 3


def test_resource_usage_matches_paper_shape():
    requests = 20
    reports = run_resource_usage(payload_bytes=256 * 1024, requests=requests)
    desktop, rpi = reports["desktop"], reports["rpi"]
    # The desktop setup sustains far higher throughput ...
    assert desktop.throughput_tps > 3 * rpi.throughput_tps

    # ... while every committed transaction costs the RPi peers far more
    # CPU time than it costs the desktop peers (limited hardware capacity).
    def peer_cpu_seconds_per_tx(report):
        return max(u.cpu_core_seconds for u in report.nodes if "peer" in u.role) / requests

    assert peer_cpu_seconds_per_tx(rpi) > 3 * peer_cpu_seconds_per_tx(desktop)
    for report in reports.values():
        co_hosted = next(u for u in report.nodes if u.role == "peer+client")
        other_peers = [u for u in report.nodes if u.role == "peer"]
        # The peer co-hosting the client burns the most CPU time ...
        assert co_hosted.cpu_core_seconds >= max(u.cpu_core_seconds for u in other_peers)
        # ... and dominates outbound traffic (every payload to the storage
        # node, every proposal to the peers).
        assert co_hosted.bytes_sent > 0
        assert co_hosted.bytes_sent == max(u.bytes_sent for u in report.nodes)


def test_batch_ablation_larger_batches_do_not_hurt_throughput():
    ablation = run_sweep(SWEEPS["ablation-batch"], values=(1, 20), requests=20)
    assert len(ablation.results) == 2
    small, large = ablation.results
    assert large.throughput_tps >= small.throughput_tps * 0.8
    assert len(ablation.to_table().rows) == 2


def test_batch_ablation_measures_block_size_not_timeout():
    """Every point runs whole blocks: flat throughput, response time
    growing with the block size, no row cut by the batch timeout."""
    ablation = run_sweep(SWEEPS["ablation-batch"], requests=20)
    by_size = dict(zip(ablation.values, ablation.results))
    assert all(result.failed == 0 for result in ablation.results)
    assert all(
        result.throughput_tps > 0.6 * by_size[1].throughput_tps for result in ablation.results
    )
    assert all(result.mean_response_s < BATCH_SWEEP_TIMEOUT_S for result in ablation.results)
    # A block twice as large takes about twice as long to fill.
    assert by_size[100].mean_response_s > 1.5 * by_size[50].mean_response_s
    assert "committed" in ablation.to_table().columns


def test_concurrency_ablation_deeper_pipelines_raise_throughput():
    ablation = run_sweep(SWEEPS["ablation-concurrency"], requests=20)
    by_depth = dict(zip(ablation.values, ablation.results))
    # Keeping more than one submission in flight beats the blocking client.
    assert by_depth[2].throughput_tps > by_depth[1].throughput_tps
    assert by_depth[16].throughput_tps > by_depth[1].throughput_tps * 2
    assert ablation.speedup > 2.0
    assert all(result.failed == 0 for result in ablation.results)
    assert len(ablation.to_table().rows) == 5


def test_consensus_ablation_solo_and_raft_commit_everything():
    ablation = run_sweep(SWEEPS["ablation-consensus"], requests=20)
    solo, raft = ablation.results
    assert ablation.values == ["solo", "raft"]
    assert (solo.committed, solo.failed) == (20, 0)
    assert (raft.committed, raft.failed) == (20, 0)
    # Raft adds replication latency but stays within an order of magnitude.
    assert raft.throughput_tps > solo.throughput_tps * 0.1


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


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_cli_main_runs_every_sweep(name, capsys):
    exit_code = main([name, "--requests", "4"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert SWEEPS[name].title in captured.out


def test_cli_main_runs_ops_experiment(capsys):
    exit_code = main(["ops", "--requests", "20"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "operator" in captured.out


# ----------------------------------------------------------- sharding ablation
def test_sharding_ablation_scales_write_throughput():
    ablation = run_sweep(SWEEPS["ablation-sharding"], values=(1, 2), requests=60)
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
