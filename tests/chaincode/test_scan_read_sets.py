"""The read set and state-operation count of every scan form.

Every scan costs exactly one state operation and records one read per
*returned* row, in key order — as Fabric's ``GetQueryResult`` records
only the keys the state database hands back.  Marker rows a scan skips,
rows the selector rejects and rows past a filled page are not reads, and
the index and scan paths record the same read set.  Endorsers sign the
digest of exactly this read set.
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

MARKER = "__hyperprov_initialized__"


def record(key, hot):
    return ProvenanceRecord(
        key=key, checksum=checksum_of(key.encode()), location=f"ssh://s/{key}",
        creator="cam", organization="org1", certificate_fingerprint="fp",
        metadata={"hot": hot},
    ).to_json()


@pytest.fixture
def state():
    """a/1..a/6 (odd ones hot, a/4 deleted), b/1, a non-JSON row, the marker."""
    state = WorldState()
    state.put(MARKER, "true", (0, 0))
    for index in range(1, 7):
        state.put(f"a/{index}", record(f"a/{index}", hot=index % 2 == 1), (1, index))
    state.put("a/7", "not json", (1, 7))
    state.put("b/1", record("b/1", hot=True), (2, 0))
    state.delete("a/4", (3, 0))
    return state


def invoke(state, function, args):
    stub = ChaincodeStub(
        tx_id="tx", channel="ch", function=function, args=args,
        world_state=state, history=HistoryDatabase(), timestamp=1.0,
    )
    response = HyperProvChaincode().invoke(stub)
    assert response.is_ok, response.message
    assert stub.state_operations == 1
    reads = [(entry.key, entry.version) for entry in stub.rw_set.reads]
    return json.loads(response.scan.payload()), reads


def query(state, **selector):
    return invoke(state, "query", [json.dumps(selector)])


A_RUN = [("a/1", (1, 1)), ("a/2", (1, 2)), ("a/3", (1, 3)), ("a/5", (1, 5)),
         ("a/6", (1, 6)), ("a/7", (1, 7))]
EVERYTHING = [(MARKER, (0, 0))] + A_RUN + [("b/1", (2, 0))]
HOT = [("a/1", (1, 1)), ("a/3", (1, 3)), ("a/5", (1, 5)), ("b/1", (2, 0))]


def keys_of(rows):
    return [row["key"] for row in rows]


def returned(rows):
    """The ``(key, version)`` read each returned row stands for."""
    versions = dict(EVERYTHING)
    return [(key, versions[key]) for key in keys_of(rows)]


def test_eager_prefix_reads_only_the_matching_rows(state):
    rows, reads = query(state, _prefix="a/", **{"metadata.hot": True})
    assert keys_of(rows) == ["a/1", "a/3", "a/5"]
    assert reads == HOT[:3]  # neither the rejected a/2, a/6, a/7 nor the tombstoned a/4


def test_full_range_reads_the_returned_rows_not_the_marker(state):
    rows, reads = query(state, **{"metadata.hot": True})
    assert keys_of(rows) == ["a/1", "a/3", "a/5", "b/1"]
    assert reads == HOT


def test_paginated_prefix_reads_the_page_and_nothing_past_it(state):
    page, reads = query(state, _prefix="a/", _limit=2, **{"metadata.hot": True})
    assert keys_of(page["records"]) == ["a/1", "a/3"] and page["bookmark"] == "a/3"
    assert reads == HOT[:2]


def test_paginated_prefix_resumes_strictly_after_the_bookmark(state):
    page, reads = query(
        state, _prefix="a/", _limit=2, _bookmark="a/3", **{"metadata.hot": True}
    )
    assert keys_of(page["records"]) == ["a/5"] and page["bookmark"] is None
    assert reads == [("a/5", (1, 5))]


def test_paginated_scan_without_prefix_does_not_read_the_marker(state):
    page, reads = query(state, _limit=1, **{"metadata.hot": False})
    assert keys_of(page["records"]) == ["a/2"]
    assert reads == [("a/2", (1, 2))]


def test_index_path_reads_what_the_scan_path_reads(state):
    _rows, scan_reads = query(state, **{"metadata.hot": True})
    scan_page, scan_page_reads = query(state, _limit=2, **{"metadata.hot": True})
    state.attach_secondary_index(FieldValueIndex(("metadata.*",)))
    rows, reads = query(state, **{"metadata.hot": True})
    assert keys_of(rows) == [key for key, _ in HOT] and reads == HOT == scan_reads
    page, reads = query(state, _limit=2, _explain=True, **{"metadata.hot": True})
    assert page["plan"]["access_path"] == "index-intersection"
    # Four hot keys were fetched; only the two on the page are reads.
    assert page["plan"]["candidates"] == 4
    assert keys_of(page["records"]) == keys_of(scan_page["records"]) == ["a/1", "a/3"]
    assert page["bookmark"] == "a/3"
    assert reads == HOT[:2] == scan_page_reads


def test_getbyrange_plain_form_returns_and_reads_marker_rows(state):
    rows, reads = invoke(state, "getbyrange", ["", "a/3"])
    assert keys_of(rows) == [MARKER, "a/1", "a/2"]
    assert reads == EVERYTHING[:3] == returned(rows)
    rows, reads = invoke(state, "getbyrange", ["a/3", "b"])
    assert keys_of(rows) == ["a/3", "a/5", "a/6", "a/7"]  # no document check
    assert reads == A_RUN[2:] == returned(rows)


def test_getbyrange_paginated_form_neither_returns_nor_reads_marker_rows(state):
    page, reads = invoke(state, "getbyrange", ["", "", "2", ""])
    assert keys_of(page["records"]) == ["a/1", "a/2"] and page["bookmark"] == "a/2"
    assert reads == A_RUN[:2] == returned(page["records"])
    page, reads = invoke(state, "getbyrange", ["", "b", "0", "a/5"])
    assert keys_of(page["records"]) == ["a/6", "a/7"] and page["bookmark"] is None
    assert reads == A_RUN[4:] == returned(page["records"])
