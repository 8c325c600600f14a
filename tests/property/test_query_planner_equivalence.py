"""Randomized oracle tests: planner access paths vs a naive full scan.

The rich-query planner picks between posting-list intersection, a prefix
run and a full scan per selector.  These tests drive an indexed and an
unindexed world state with the same interleaved put/delete churn (re-puts
of deleted keys included, so index tombstone handling is exercised) and
assert, for randomized selectors:

* the chaincode's response is **byte-identical** with and without the
  secondary index — access-path choice never changes results;
* both agree with a trivially correct oracle that re-scans every document
  per query with independently re-implemented match semantics;
* paginated walks concatenate to exactly the unpaginated answer;
* both paths cost one state operation and record *equal* read sets: the
  returned rows, in key order, at their committed versions;
* over a run, the planner genuinely exercises more than one access path
  (otherwise the equivalence claim is vacuous).
"""

import json
import random

import pytest

from repro.chaincode.hyperprov import HyperProvChaincode
from repro.chaincode.records import ProvenanceRecord
from repro.chaincode.shim import ChaincodeStub
from repro.common.hashing import checksum_of
from repro.ledger.history import HistoryDatabase
from repro.ledger.world_state import WorldState
from repro.query.indexes import FieldValueIndex

INDEX_FIELDS = ("creator", "organization", "metadata.*")

CREATORS = ["cam-1", "cam-2", "gw-1", ""]
ORGANIZATIONS = ["org1", "org2", "org3"]
STATIONS = ["tromso", "alta", "vardo"]


def _random_key(rng: random.Random) -> str:
    segment = rng.choice(["tenant", "perf", "iot", "x", "audit"])
    # Small key space on purpose: collisions exercise re-puts of deleted
    # and overwritten keys (and their index tombstones).
    return f"{segment}/{rng.randrange(60):03d}"


def _random_value(rng: random.Random, key: str, step: int) -> str:
    metadata = {}
    if rng.random() < 0.8:
        metadata["station"] = rng.choice(STATIONS)
    if rng.random() < 0.5:
        metadata["hot"] = rng.random() < 0.5
    return ProvenanceRecord(
        key=key,
        checksum=checksum_of(f"{key}@{step}".encode()),
        location=f"ssh://storage/{key}",
        creator=rng.choice(CREATORS),
        organization=rng.choice(ORGANIZATIONS),
        certificate_fingerprint="fp",
        metadata=metadata,
    ).to_json()


def _random_selector(rng: random.Random) -> dict:
    selector = {}
    if rng.random() < 0.6:
        selector["creator"] = rng.choice(CREATORS)
    if rng.random() < 0.4:
        selector["organization"] = rng.choice(ORGANIZATIONS)
    if rng.random() < 0.4:
        selector["metadata.station"] = rng.choice(STATIONS)
    if rng.random() < 0.15:
        selector["metadata.hot"] = rng.random() < 0.5
    if rng.random() < 0.35 or not selector:
        selector["_prefix"] = rng.choice(["tenant/", "iot/", "perf/0", ""])
        if not selector.get("_prefix") and len(selector) == 1:
            selector["creator"] = rng.choice(CREATORS)
    return selector


def _oracle_matches(document: dict, field: str, expected) -> bool:
    """Independent re-implementation of one selector equality."""
    if field.startswith("metadata."):
        return (document.get("metadata") or {}).get(field[len("metadata."):]) == expected
    if field == "dependencies":
        held = document.get("dependencies") or []
        return expected in held if isinstance(expected, str) else held == expected
    if field not in ProvenanceRecord.__dataclass_fields__:
        return expected is None  # no record has it, whatever the document says
    defaults = {"creator": "", "organization": "", "checksum": ""}
    return document.get(field, defaults.get(field)) == expected


def _oracle_query(documents: dict, selector: dict) -> list:
    """The naive full scan: every live document, checked field by field."""
    prefix = selector.get("_prefix", "")
    rows = []
    for key in sorted(documents):
        if prefix and not key.startswith(prefix):
            continue
        document = json.loads(documents[key])
        if all(
            _oracle_matches(document, field, expected)
            for field, expected in selector.items()
            if not field.startswith("_")
        ):
            rows.append(key)
    return rows


def _query_with_reads(state: WorldState, selector: dict):
    stub = ChaincodeStub(
        tx_id="tx-q",
        channel="ch",
        function="query",
        args=[json.dumps(selector, sort_keys=True)],
        world_state=state,
        history=HistoryDatabase(),
        creator=None,
        timestamp=1.0,
    )
    response = HyperProvChaincode().invoke(stub)
    assert response.is_ok, response.message
    assert stub.state_operations == 1
    reads = [(entry.key, entry.version) for entry in stub.rw_set.reads]
    # Key order, no duplicates, and the version each row is committed at.
    assert [key for key, _ in reads] == sorted({key for key, _ in reads})
    assert all(version == state.get_version(key) for key, version in reads)
    return response.scan.payload(), reads


def _query(state: WorldState, selector: dict):
    return _query_with_reads(state, selector)[0]


def _assert_read_sets_agree(returned, index_reads, scan_reads):
    """What the two access paths promise about reads (see module docstring)."""
    assert index_reads == scan_reads
    assert [key for key, _ in scan_reads] == returned


@pytest.mark.parametrize("seed", [1, 7, 42, 1337])
def test_planner_paths_match_the_naive_full_scan_oracle(seed):
    rng = random.Random(seed)
    indexed = WorldState()
    indexed.attach_secondary_index(FieldValueIndex(INDEX_FIELDS))
    plain = WorldState()
    documents = {}
    paths_seen = set()

    def check_equivalence():
        for _ in range(4):
            selector = _random_selector(rng)
            with_index, index_reads = _query_with_reads(indexed, selector)
            without, scan_reads = _query_with_reads(plain, selector)
            # Access path must never change the response bytes.
            assert with_index == without
            keys = [row["key"] for row in json.loads(without)]
            assert keys == _oracle_query(documents, selector)
            _assert_read_sets_agree(keys, index_reads, scan_reads)
            # Record which path the planner actually chose.
            explained = json.loads(
                _query(indexed, {**selector, "_explain": True})
            )
            paths_seen.add(explained["plan"]["access_path"])

    def check_paginated_walk():
        selector = _random_selector(rng)
        collected, bookmark = [], ""
        for _page in range(100):
            request = {**selector, "_limit": 3}
            if bookmark:
                request["_bookmark"] = bookmark
            with_index, index_reads = _query_with_reads(indexed, request)
            without, scan_reads = _query_with_reads(plain, request)
            assert with_index == without
            envelope = json.loads(with_index)
            page = [row["key"] for row in envelope["records"]]
            _assert_read_sets_agree(page, index_reads, scan_reads)
            collected.extend(page)
            if not envelope["bookmark"]:
                break
            bookmark = envelope["bookmark"]
        assert collected == _oracle_query(documents, selector)

    for step in range(600):
        key = _random_key(rng)
        version = (step // 10, step % 10)
        # Delete-heavy mix so index tombstone cleanup triggers repeatedly.
        if rng.random() < 0.45:
            indexed.delete(key, version)
            plain.delete(key, version)
            documents.pop(key, None)
        else:
            value = _random_value(rng, key, step)
            indexed.put(key, value, version)
            plain.put(key, value, version)
            documents[key] = value
        if step % 37 == 0:
            check_equivalence()
        if step % 149 == 0:
            check_paginated_walk()
    check_equivalence()
    check_paginated_walk()

    # The equivalence is only meaningful if several paths actually ran.
    assert "index-intersection" in paths_seen
    assert paths_seen & {"prefix", "scan"}
