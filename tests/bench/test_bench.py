"""Tests for the benchmark harness: runner, reporting, tables, claims and CLI.

What the reproduction is held to is :data:`PAPER_CLAIMS`, one parametrized
test per row.  Every table is measured once per session at the load its
claims hold at (``measured`` in ``conftest.py``); the CLI and export tests
read the same runs.
"""

import re
from pathlib import Path

import pytest

from repro.bench import cli
from repro.bench import runner as runner_module
from repro.bench.cli import GATES, build_parser, main, tables_for
from repro.bench.experiments import (
    CLAIMS_LOAD,
    EXPERIMENTS,
    NOT_OFFLINE,
    PAPER_CLAIMS,
    command_of,
)
from repro.bench.reporting import ResultTable, format_bytes, format_seconds
from repro.bench.runner import RunConfig, StoreDataRunner
from repro.bench.sweeps import COLUMNS, SWEEPS, run_sweep
from repro.common.metrics import percentile

TABLE_COMMANDS = sorted({command_of(key) for key in EXPERIMENTS})
CI_WORKFLOW = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"


# ------------------------------------------------------------------- reporting
def test_result_table_render():
    table = ResultTable("Demo", ["a", "b"])
    table.add_row(1, 2.5)
    table.add_row("x", "y")
    table.add_note("a note")
    rendered = table.render()
    assert "Demo" in rendered and "a note" in rendered
    assert rendered.splitlines()[2].split() == ["a", "b"]


def test_result_table_rejects_wrong_arity():
    table = ResultTable("t", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_formatting_helpers():
    assert format_seconds(0.002).endswith("ms")
    assert format_seconds(2.0).endswith("s")
    assert format_seconds(float("nan")) == "n/a"
    assert format_bytes(2 * 1024 * 1024) == "2.0 MiB"


# ---------------------------------------------------------------------- runner
def test_runner_commits_every_request(desktop_deployment):
    runner = StoreDataRunner(desktop_deployment)
    result = runner.run(RunConfig(data_size_bytes=1024, request_count=12, concurrency=12))
    assert result["committed"] == 12
    assert result["failed"] == 0
    assert result["throughput_tps"] > 0
    assert result["mean_response_s"] > 0
    assert result["p95_response_s"] >= result["mean_response_s"] * 0.5
    assert 0 < result["storage_share"] < 1


def test_runner_interval_estimate_grows_with_size(desktop_deployment):
    runner = StoreDataRunner(desktop_deployment)
    assert runner.estimate_item_interval(4 * 1024 * 1024) > runner.estimate_item_interval(1024)


def test_runner_percentiles_use_shared_helper(desktop_deployment, monkeypatch):
    calls = {}

    def recording(values, pct):
        calls[pct] = (len(values), percentile(values, pct))
        return calls[pct][1]

    monkeypatch.setattr(runner_module, "percentile", recording)
    runner = StoreDataRunner(desktop_deployment)
    result = runner.run(RunConfig(data_size_bytes=1024, request_count=10, concurrency=10))
    assert calls == {50: (10, result["p50_response_s"]), 95: (10, result["p95_response_s"])}
    assert result["p50_response_s"] <= result["p95_response_s"]


# ---------------------------------------------------------------------- tables
def test_experiment_table_is_well_formed(measured):
    """Every sweep is a table, no two tables share a title, ``ops`` and
    ``ops/stages`` split one run by their columns, and every claim reads
    tables that exist."""
    assert set(SWEEPS) <= set(EXPERIMENTS)
    for sweep in SWEEPS.values():
        assert set(sweep.columns) <= set(COLUMNS)
    assert all(measured(key) for key in EXPERIMENTS)  # each keeps rows carrying its columns
    titles = [table.title.format(**measured(key)[0]) for key, table in EXPERIMENTS.items()]
    assert len(set(titles)) == len(titles)
    assert [row["stage"] for row in measured("ops/stages")] == ["endorse", "order", "commit"]
    assert "store_data" in {row["operator"] for row in measured("ops")}
    for claim in PAPER_CLAIMS:
        assert set(claim.experiments) <= set(EXPERIMENTS), claim.name
        assert claim.kind in ("calibration", "prediction"), claim.name
        assert all(op in ("<", "<=", ">", ">=", "==") for op, _ in claim.tolerance), claim.name


def test_a_sweep_point_measured_alone_equals_it_inside_the_sweep(measured):
    """Fresh deployment per point: the last point of the cheapest sweep,
    measured alone, equals the same point of the full run."""
    full = measured("ablation-fastfabric")
    sweep = SWEEPS["ablation-fastfabric"]
    assert [row["value"] for row in full] == list(sweep.values)
    alone = run_sweep(sweep, CLAIMS_LOAD, values=sweep.values[-1:])
    assert alone == full[-1:]


def test_a_20_message_block_keeps_the_1_message_blocks_throughput(measured):
    """A block size between the sweep's points (20) costs at most a fifth
    of the 1-message block's throughput."""
    one = measured("ablation-batch")[0]
    assert one["value"] == 1
    (twenty,) = run_sweep(SWEEPS["ablation-batch"], CLAIMS_LOAD, values=(20,))
    assert twenty["committed"] == twenty["requests"]
    assert twenty["throughput_tps"] >= 0.8 * one["throughput_tps"]


# ---------------------------------------------------------------------- claims
@pytest.mark.parametrize(
    "claim", PAPER_CLAIMS, ids=[f"{c.experiments[0]}: {c.name}" for c in PAPER_CLAIMS]
)
def test_paper_claim_holds(claim, measured):
    value = claim.quantity(*(measured(key) for key in claim.experiments))
    assert claim.holds(value), f"{claim.name}: {value} is not {claim.tolerance}"


def test_every_paper_value_names_an_existing_file():
    root = Path(__file__).resolve().parents[2]
    cited = [claim for claim in PAPER_CLAIMS if claim.paper != NOT_OFFLINE]
    assert all((root / claim.source).is_file() for claim in cited)
    assert {"2.71 W", "3.64 W"} <= {claim.paper for claim in cited}


def test_a_claim_line_says_paper_simulated_and_verdict():
    claim = next(c for c in PAPER_CLAIMS if c.paper == "2.71 W")
    rows = [{"interval": "idle (HLF running)", "mean_watts": 3.5}]
    line = claim.line({"fig3": rows}, requests=4)
    assert line.startswith("claim: [calibration] ")
    assert "paper 2.71 W" in line and "simulated 3.5 at --requests 4, outside" in line
    assert line.endswith(">= 2.61, <= 2.81 (held at --requests 20)")
    assert "simulated n/a" in claim.line({}, requests=4)


# ------------------------------------------------------------------------- cli
def test_cli_parser_accepts_known_experiments():
    args = build_parser().parse_args(["fig1", "--requests", "5"])
    assert args.experiments == ["fig1"]
    assert args.requests == 5


@pytest.mark.parametrize("flag", ["--concurrency", "--order-batch", "--interval"])
def test_cli_refuses_the_deleted_flags(flag):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig1", flag, "4"])


def test_cli_rejects_unknown_experiment_and_zero_requests():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figx"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig1", "--requests", "0"])


def test_cli_shards_and_scheduler_flags_build_the_shard_sweep():
    parser = build_parser()
    args = parser.parse_args(["ablation-sharding", "--shards", "2", "--scheduler", "fair-share"])
    table = tables_for(args)["ablation-sharding"]
    assert "fair-share intake" in table.title
    assert [row["value"] for row in table.rows(1, 42)] == [1, 2]
    with pytest.raises(SystemExit):
        parser.parse_args(["ablation-sharding", "--scheduler", "lifo"])


@pytest.mark.parametrize("command", TABLE_COMMANDS)
def test_cli_prints_each_table_with_its_claims(command, cached_tables, measured,
                                               monkeypatch, capsys):
    """Each command prints its tables — title, headers, first-column cells
    and note — and, under them, every claim row of those tables within
    tolerance at the load it holds at."""
    claims = [claim for claim in PAPER_CLAIMS if command_of(claim.experiments[0]) == command]
    # A claim reading another command's table (fig2 against fig1) needs it in the run.
    needed = sorted({command_of(key) for claim in claims for key in claim.experiments})
    monkeypatch.setattr(cli, "tables_for", lambda args: cached_tables)
    assert main(needed) == 0
    out = capsys.readouterr().out
    for key, table in EXPERIMENTS.items():
        if command_of(key) != command:
            continue
        rows = measured(key)
        assert table.title.format(**rows[0]) in out
        assert all(header in out for header, _, _ in table.columns), key
        _, field, cell = table.columns[0]
        assert all(str(cell(row[field])) in out for row in rows), key
        if table.note is not None:
            assert f"note: {table.note(rows)}" in out
    lines = [line for line in out.splitlines() if line.startswith("claim:")]
    assert len(lines) == sum(command_of(claim.experiments[0]) in needed
                             for claim in PAPER_CLAIMS)
    assert all(f"at --requests {CLAIMS_LOAD}, within" in line for line in lines)


def test_ci_smoke_job_runs_every_table_experiment():
    """A new table row cannot be left out of the CI smoke run."""
    workflow = CI_WORKFLOW.read_text()
    job = workflow[workflow.index("\n  bench-smoke:"):workflow.index("\n  anchors:")]
    named = set(re.findall(r"[a-z0-9-]+", job))
    assert set(TABLE_COMMANDS) - set(GATES) <= named
    assert set(TABLE_COMMANDS).isdisjoint(GATES)
