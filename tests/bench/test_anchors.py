"""The anchors gate: ``check``/``load``, the committed file, and no writes."""

from pathlib import Path

import pytest

from repro.bench import anchors
from repro.bench.anchors import GateError
from repro.bench.chaos import CHAOS_SEED, SCENARIOS
from repro.bench.cli import main
from repro.bench.fleet import anchor_inputs, fleet_spec, profile_name
from repro.fabric.network import FabricNetwork

COMMITTED = Path(__file__).resolve().parents[2] / "ANCHORS.json"

INPUTS = {"devices": 500, "shards": 2, "duration_s": 200.0, "seed": 42}
DOCUMENT = {"fleet": {"500x2": {"inputs": INPUTS, "anchor": "a" * 64}}}


# ----------------------------------------------------------------- check/load
def test_check_passes_on_the_committed_anchor():
    anchors.check(DOCUMENT, "fleet", "500x2", INPUTS, "a" * 64)


def test_check_mismatch_prints_committed_and_fresh_anchor():
    with pytest.raises(GateError, match="virtual time moved") as error:
        anchors.check(DOCUMENT, "fleet", "500x2", INPUTS, "b" * 64)
    assert "a" * 64 in str(error.value)
    assert "b" * 64 in str(error.value)


@pytest.mark.parametrize(
    "document", [{}, {"fleet": {}}, {"fleet": {"500x2": "not an entry"}}]
)
def test_check_missing_entry_names_the_inputs(document):
    with pytest.raises(GateError, match="no committed anchor") as error:
        anchors.check(document, "fleet", "500x2", INPUTS, "a" * 64)
    assert "'devices': 500" in str(error.value)


def test_check_differing_inputs_are_a_missing_anchor_not_drift():
    shorter = dict(INPUTS, duration_s=50.0)
    with pytest.raises(GateError, match="no committed anchor") as error:
        anchors.check(DOCUMENT, "fleet", "500x2", shorter, "a" * 64)
    message = str(error.value)
    assert "virtual time moved" not in message
    assert "'duration_s': 50.0" in message and "'duration_s': 200.0" in message


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
def test_load_unreadable_or_corrupt_file_is_a_gate_error(tmp_path, content):
    path = tmp_path / "anchors.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(GateError, match="anchors.json"):
        anchors.load(path)


# --------------------------------------------------------- the committed file
def test_committed_anchors_cover_every_ci_gate():
    """CI's ``--anchors ANCHORS.json`` runs must find an entry: a renamed
    scenario or a changed CI profile fails here, not vacuously in CI."""
    committed = anchors.load(COMMITTED)
    for row in SCENARIOS:
        assert committed["chaos"][row.name]["inputs"] == {"seed": CHAOS_SEED}
        assert len(committed["chaos"][row.name]["anchor"]) == 64
    ci_profile = fleet_spec(devices=500, shards=2)  # ci.yml's fleet step
    entry = committed["fleet"][profile_name(ci_profile)]
    assert entry["inputs"] == anchor_inputs(ci_profile)
    assert entry["inputs"]["duration_s"] == 200.0 and entry["inputs"]["seed"] == 42
    assert len(entry["anchor"]) == 64


# ------------------------------------------------------------ gates never write
@pytest.mark.parametrize(
    "argv",
    [
        ["fleet", "--fleet-devices", "24", "--fleet-shards", "2", "--workers", "2"],
        ["query", "--query-keys", "1024"],
        ["chaos"],
    ],
    ids=["fleet", "query", "chaos"],
)
def test_bench_runs_create_no_file(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert list(tmp_path.iterdir()) == []


def test_query_gate_fails_with_the_index_disabled(capsys, monkeypatch):
    """Without the index the indexed mode plans a full scan: it fetches
    every key, as many as the scan, and the count gate fails."""
    monkeypatch.setattr(FabricNetwork, "enable_secondary_indexes", lambda self, fields: None)
    assert main(["query", "--query-keys", "1024"]) == 1
    out = capsys.readouterr().out
    assert "indexed plan fetches 1024 of the scan's 1024 candidates" in out
    assert "(scan), above 1/100 of the scan" in out
