"""Planner unit tests plus chaincode-level access-path pinning.

The ``explain()`` assertions here pin the planner's access-path choices:
a change that silently flips a selector from posting-list intersection to
a scan (or vice versa) fails these tests instead of only moving bench
numbers.
"""

import json

import pytest

from repro.chaincode.hyperprov import HyperProvChaincode
from repro.chaincode.records import ProvenanceRecord
from repro.chaincode.shim import ChaincodeStub
from repro.common.hashing import checksum_of
from repro.ledger.history import HistoryDatabase
from repro.ledger.world_state import WorldState
from repro.query.indexes import FieldValueIndex
from repro.query.planner import (
    PATH_INDEX,
    PATH_PREFIX,
    PATH_SCAN,
    build_plan,
    intersect_keys,
)


def record(key, creator="client1", organization="org1", metadata=None):
    return ProvenanceRecord(
        key=key,
        checksum=checksum_of(key.encode()),
        location=f"ssh://storage/{key}",
        creator=creator,
        organization=organization,
        certificate_fingerprint="fp",
        metadata=metadata or {},
    )


def state_with_records(*records, index=None):
    state = WorldState()
    for position, entry in enumerate(records):
        state.put(entry.key, entry.to_json(), (0, position))
    if index is not None:
        state.attach_secondary_index(index)
    return state


def stub_for(function, args, state):
    return ChaincodeStub(
        tx_id="tx-1",
        channel="ch",
        function=function,
        args=args,
        world_state=state,
        history=HistoryDatabase(),
        creator=None,
        timestamp=1.0,
    )


def run_query(state, selector):
    response = HyperProvChaincode().invoke(
        stub_for("query", [json.dumps(selector)], state)
    )
    assert response.is_ok, response.message
    return json.loads(response.scan.payload())


# ----------------------------------------------------------- plan choice
def test_no_index_means_scan():
    plan = build_plan({"creator": "x"}, index=None, total_keys=100)
    assert plan.access_path == PATH_SCAN
    assert plan.residual_fields == ("creator",)
    assert plan.estimated_candidates == 100
    assert plan.scan_candidates == 100


def test_prefix_scopes_the_fallback():
    plan = build_plan(
        {"creator": "x"},
        index=None,
        total_keys=100,
        prefix="tenant/a/",
        prefix_keys=7,
    )
    assert plan.access_path == PATH_PREFIX
    assert plan.estimated_candidates == 7
    assert plan.scan_candidates == 7


def test_small_posting_list_wins_and_orders_fields_smallest_first():
    index = FieldValueIndex(["creator", "organization"])
    for position in range(6):
        index.update(
            f"k{position}",
            record(f"k{position}", creator=f"c{position % 3}").to_json(),
        )
    plan = build_plan(
        {"creator": "c0", "organization": "org1"},
        index=index,
        total_keys=6,
    )
    assert plan.access_path == PATH_INDEX
    # creator posting (2 keys) is tighter than organization (6 keys).
    assert plan.indexed_fields == ("creator", "organization")
    assert plan.estimated_candidates == 2
    assert plan.cardinalities == {"creator": 2, "organization": 6}
    assert plan.residual_fields == ()


def test_posting_no_tighter_than_scope_falls_back_and_merges_residual():
    index = FieldValueIndex(["organization"])
    for position in range(4):
        index.update(f"k{position}", record(f"k{position}").to_json())
    plan = build_plan(
        {"organization": "org1", "metadata.run": 3},
        index=index,
        total_keys=4,
    )
    assert plan.access_path == PATH_SCAN
    # The indexed equality folds back into the residual predicate set —
    # correctness never depends on the access path.
    assert set(plan.residual_fields) == {"organization", "metadata.run"}


def test_uncovered_and_unservable_fields_stay_residual():
    index = FieldValueIndex(["creator"])
    index.update("a", record("a", metadata={"tags": ["x"]}).to_json())
    plan = build_plan(
        {"creator": "client1", "dependencies": "raw", "metadata.tags": ["x"]},
        index=index,
        total_keys=10,
    )
    assert plan.access_path == PATH_INDEX
    assert plan.indexed_fields == ("creator",)
    assert set(plan.residual_fields) == {"dependencies", "metadata.tags"}


def test_explain_output_is_pinned():
    index = FieldValueIndex(["creator"])
    index.update("a", record("a").to_json())
    index.update("b", record("b", creator="other").to_json())
    plan = build_plan(
        {"creator": "client1", "metadata.run": 1},
        index=index,
        total_keys=2,
        limit=5,
        bookmark="a",
    )
    assert plan.explain() == {
        "access_path": "index-intersection",
        "estimated_candidates": 1,
        "scan_candidates": 2,
        "residual_fields": ["metadata.run"],
        "indexed_fields": ["creator"],
        "cardinalities": {"creator": 1},
        "limit": 5,
        "bookmark": "a",
    }


# -------------------------------------------------------- intersect_keys
def test_intersect_keys_sorted_prefix_scoped_and_bookmark_cut():
    index = FieldValueIndex(["creator", "organization"])
    for key in ["p/3", "p/1", "q/2", "p/2"]:
        index.update(key, record(key).to_json())
    index.update("p/9", record("p/9", organization="org2").to_json())
    plan = build_plan(
        {"creator": "client1", "organization": "org1"},
        index=index,
        total_keys=50,
        prefix="p/",
        prefix_keys=40,
        bookmark="p/1",
    )
    assert plan.access_path == PATH_INDEX
    keys = intersect_keys(index, plan, {"creator": "client1", "organization": "org1"})
    assert keys == ["p/2", "p/3"]  # sorted, prefix-scoped, strictly after p/1


def test_intersect_keys_empty_posting_short_circuits():
    index = FieldValueIndex(["creator"])
    index.update("a", record("a").to_json())
    plan = build_plan({"creator": "nobody"}, index=index, total_keys=10)
    # An empty posting still "wins" the cost race (0 candidates).
    assert plan.access_path == PATH_INDEX
    assert intersect_keys(index, plan, {"creator": "nobody"}) == []


# ----------------------------------------- chaincode-level path pinning
STATION_RECORDS = (
    record("iot/a", creator="cam-1", metadata={"station": "tromso"}),
    record("iot/b", creator="cam-1", metadata={"station": "alta"}),
    record("iot/c", creator="cam-2", metadata={"station": "tromso"}),
    record("lab/d", creator="cam-1", metadata={"station": "tromso"}),
)


def test_chaincode_explain_pins_index_intersection():
    state = state_with_records(
        *STATION_RECORDS, index=FieldValueIndex(["creator", "metadata.*"])
    )
    envelope = run_query(
        state,
        {"creator": "cam-1", "metadata.station": "tromso", "_explain": True},
    )
    assert [row["key"] for row in envelope["records"]] == ["iot/a", "lab/d"]
    assert envelope["bookmark"] is None
    plan = envelope["plan"]
    assert plan["access_path"] == PATH_INDEX
    # Both postings hold 3 keys; the tie breaks on the field name.
    assert plan["indexed_fields"] == ["creator", "metadata.station"]
    assert plan["residual_fields"] == []


def test_chaincode_explain_pins_scan_without_index():
    state = state_with_records(*STATION_RECORDS)
    envelope = run_query(state, {"creator": "cam-1", "_explain": True})
    assert envelope["plan"]["access_path"] == PATH_SCAN
    assert envelope["plan"]["residual_fields"] == ["creator"]


def test_chaincode_explain_pins_prefix_path():
    state = state_with_records(*STATION_RECORDS)
    envelope = run_query(
        state, {"_prefix": "iot/", "creator": "cam-1", "_explain": True}
    )
    assert envelope["plan"]["access_path"] == PATH_PREFIX
    assert envelope["plan"]["prefix"] == "iot/"
    assert [row["key"] for row in envelope["records"]] == ["iot/a", "iot/b"]


# ------------------------------------------- byte-identical on/off paths
@pytest.mark.parametrize(
    "selector",
    [
        {"creator": "cam-1"},
        {"creator": "cam-1", "metadata.station": "tromso"},
        {"_prefix": "iot/", "metadata.station": "tromso"},
        {"organization": "org1"},
        {"creator": "nobody"},
    ],
)
def test_query_payload_is_byte_identical_with_and_without_index(selector):
    plain = state_with_records(*STATION_RECORDS)
    indexed = state_with_records(
        *STATION_RECORDS, index=FieldValueIndex(["creator", "metadata.*"])
    )
    chaincode = HyperProvChaincode()
    args = [json.dumps(selector)]
    without = chaincode.invoke(stub_for("query", args, plain))
    with_index = HyperProvChaincode().invoke(stub_for("query", args, indexed))
    assert without.scan.payload() == with_index.scan.payload()


def test_paginated_walk_is_byte_identical_with_and_without_index():
    plain = state_with_records(*STATION_RECORDS)
    indexed = state_with_records(
        *STATION_RECORDS, index=FieldValueIndex(["creator", "metadata.*"])
    )
    selector = {"creator": "cam-1", "_limit": 1}
    bookmark = ""
    pages = 0
    while True:
        request = dict(selector)
        if bookmark:
            request["_bookmark"] = bookmark
        args = [json.dumps(request)]
        without = HyperProvChaincode().invoke(stub_for("query", args, plain))
        with_index = HyperProvChaincode().invoke(stub_for("query", args, indexed))
        assert without.scan.payload() == with_index.scan.payload()
        envelope = json.loads(without.scan.payload())
        pages += 1
        if not envelope["bookmark"]:
            break
        bookmark = envelope["bookmark"]
    # cam-1 matches three keys → three 1-row pages plus the empty last page.
    assert pages == 4
