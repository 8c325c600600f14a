"""Tests for the CSV/JSON experiment exporter."""

import csv
import json

import pytest

from repro.bench.export import (
    energy_rows,
    export_all,
    figure_series_rows,
    ops_rows,
    stage_rows,
    write_csv,
)
from repro.bench.fig3_energy import run_fig3
from repro.bench.ops_table import run_ops_table
from repro.bench.sweeps import SWEEPS, run_sweep


def test_figure_series_rows_carry_setup_and_metrics():
    series = run_sweep(SWEEPS["fig1"], values=(1024,), requests=10)
    rows = figure_series_rows(series, "desktop")
    assert len(rows) == 1
    assert rows[0]["setup"] == "desktop"
    assert rows[0]["throughput_tps"] > 0
    assert rows[0]["size_bytes"] == 1024.0


def test_energy_rows_cover_every_interval():
    figure = run_fig3(load_levels={"idle (no HLF)": 0.0, "peak load": 5.0}, interval_s=60.0)
    rows = energy_rows(figure)
    assert [row["interval"] for row in rows] == ["idle (no HLF)", "peak load"]
    assert all(row["mean_watts"] > 0 for row in rows)


def test_ops_rows_flatten_both_setups():
    results = run_ops_table(repeats=2)
    rows = ops_rows(results)
    setups = {row["setup"] for row in rows}
    assert setups == {"desktop", "rpi"}
    assert all(row["latency_s"] > 0 for row in rows)

    breakdown = stage_rows(results)
    assert {row["setup"] for row in breakdown} == {"desktop", "rpi"}
    assert {row["stage"] for row in breakdown} == {"endorse", "order", "commit"}
    assert all(row["mean_latency_s"] > 0 for row in breakdown)


def test_write_csv_roundtrip(tmp_path):
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    path = write_csv(tmp_path / "out.csv", rows)
    with path.open() as handle:
        parsed = list(csv.DictReader(handle))
    assert parsed == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]


def test_write_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "empty.csv", [])


def test_export_all_writes_every_file(tmp_path):
    written = export_all(tmp_path, requests=10, rpi_requests=10, energy_interval_s=60.0)
    assert set(written) == {"fig1", "fig2", "fig3", "ops", "ops_stages", "manifest"}
    for path in written.values():
        assert (tmp_path / path.split("/")[-1]).exists() or path.startswith(str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 42
    assert set(manifest["files"]) == {"fig1", "fig2", "fig3", "ops", "ops_stages"}
    with (tmp_path / "fig1_desktop.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 6  # one row per default data size
