"""Tests for the CSV/JSON figure exporter."""

import csv
import json
from dataclasses import replace

import pytest

from repro.bench import export
from repro.bench.export import FIGURES, write_csv


def test_write_csv_roundtrip(tmp_path):
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    path = write_csv(tmp_path / "out.csv", rows)
    with path.open() as handle:
        parsed = list(csv.DictReader(handle))
    assert parsed == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]


def test_write_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "empty.csv", [])


def test_one_request_count_reaches_every_figure(tmp_path, cached_tables, monkeypatch, capsys):
    """``--requests N`` is the count of every figure and of the manifest
    (``fig2`` once ran at a fixed 20), and each CSV holds that table's rows."""
    asked = {}

    def recording(key):
        def rows(requests, seed):
            asked[key] = requests
            return cached_tables[key].rows(20, seed)  # the claims' shared run
        return replace(cached_tables[key], rows=rows)

    monkeypatch.setattr(export, "EXPERIMENTS", {key: recording(key) for key in cached_tables})
    assert export.main(["--out", str(tmp_path), "--requests", "7"]) == 0
    assert asked == {key: 7 for key in FIGURES}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["requests"] == 7 and manifest["seed"] == 42
    assert set(manifest["files"]) == set(FIGURES)
    assert "manifest: " in capsys.readouterr().out
    for key in FIGURES:
        with (tmp_path / f"{key.replace('/', '_')}.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(cached_tables[key].rows(20, 42)), key
    with (tmp_path / "fig1.csv").open() as handle:
        assert len(list(csv.DictReader(handle))) == 6  # one row per data size
