"""Unit tests for the chaincode extensions: rich queries, ownership ACL and
chaincode events (at the shim level, without a full deployment)."""

import json

import pytest

from repro.chaincode.hyperprov import HyperProvChaincode
from repro.chaincode.records import ProvenanceRecord
from repro.chaincode.shim import ChaincodeResponse, ChaincodeStub
from repro.common.errors import ChaincodeError
from repro.common.hashing import checksum_of
from repro.ledger.history import HistoryDatabase
from repro.ledger.world_state import WorldState
from repro.membership.identity import Organization


@pytest.fixture
def org1_cert():
    return Organization("org1").enroll("client1", role="client").certificate


@pytest.fixture
def org2_cert():
    return Organization("org2").enroll("client2", role="client").certificate


def stub_for(function, args, state=None, creator=None):
    return ChaincodeStub(
        tx_id="tx-1",
        channel="ch",
        function=function,
        args=args,
        world_state=state if state is not None else WorldState(),
        history=HistoryDatabase(),
        creator=creator,
        timestamp=1.0,
    )


def state_with_records(*records):
    state = WorldState()
    for position, record in enumerate(records):
        state.put(record.key, record.to_json(), (0, position))
    return state


def record(key, creator="client1", organization="org1", metadata=None, dependencies=()):
    return ProvenanceRecord(
        key=key,
        checksum=checksum_of(key.encode()),
        location=f"ssh://storage/{key}",
        creator=creator,
        organization=organization,
        certificate_fingerprint="fp",
        metadata=metadata or {},
        dependencies=list(dependencies),
    )


# ------------------------------------------------------------------ rich query
def test_query_by_creator(org1_cert):
    chaincode = HyperProvChaincode()
    state = state_with_records(
        record("a", creator="client1"), record("b", creator="someone-else")
    )
    response = chaincode.invoke(
        stub_for("query", [json.dumps({"creator": "client1"})], state=state)
    )
    assert response.is_ok
    assert [row["key"] for row in json.loads(response.scan.payload())] == ["a"]


def test_query_by_metadata_and_dependency(org1_cert):
    chaincode = HyperProvChaincode()
    state = state_with_records(
        record("raw", metadata={"station": "tromso"}),
        record("derived", dependencies=["raw"]),
    )
    by_metadata = chaincode.invoke(
        stub_for("query", [json.dumps({"metadata.station": "tromso"})], state=state)
    )
    assert [row["key"] for row in json.loads(by_metadata.scan.payload())] == ["raw"]
    by_dependency = chaincode.invoke(
        stub_for("query", [json.dumps({"dependencies": "raw"})], state=state)
    )
    assert [row["key"] for row in json.loads(by_dependency.scan.payload())] == ["derived"]


def test_query_rejects_malformed_selectors():
    chaincode = HyperProvChaincode()
    assert not chaincode.invoke(stub_for("query", [])).is_ok
    assert not chaincode.invoke(stub_for("query", ["{not json"])).is_ok
    assert not chaincode.invoke(stub_for("query", [json.dumps({})])).is_ok
    assert not chaincode.invoke(stub_for("query", [json.dumps(["list"])])).is_ok


def test_query_skips_internal_and_malformed_values():
    chaincode = HyperProvChaincode()
    state = state_with_records(record("good"))
    state.put("__hyperprov_initialized__", "true", (0, 9))
    state.put("broken", "not-a-record", (0, 10))
    response = chaincode.invoke(
        stub_for("query", [json.dumps({"organization": "org1"})], state=state)
    )
    assert [row["key"] for row in json.loads(response.scan.payload())] == ["good"]


def test_query_prefix_scopes_scan_to_candidate_keys():
    chaincode = HyperProvChaincode()
    state = state_with_records(
        record("tenant/a/1", creator="client1"),
        record("tenant/a/2", creator="other"),
        record("tenant/b/1", creator="client1"),
    )
    scoped = chaincode.invoke(
        stub_for(
            "query",
            [json.dumps({"_prefix": "tenant/a/", "creator": "client1"})],
            state=state,
        )
    )
    assert [row["key"] for row in json.loads(scoped.scan.payload())] == ["tenant/a/1"]
    # The rw-set records the returned row: not the rejected candidate
    # tenant/a/2, nor anything outside the prefix.
    stub = stub_for(
        "query", [json.dumps({"_prefix": "tenant/a/", "creator": "client1"})],
        state=state,
    )
    chaincode.invoke(stub)
    assert [r.key for r in stub.rw_set.reads] == ["tenant/a/1"]


def test_query_prefix_alone_returns_everything_under_it():
    chaincode = HyperProvChaincode()
    state = state_with_records(record("p/1"), record("p/2"), record("q/1"))
    response = chaincode.invoke(
        stub_for("query", [json.dumps({"_prefix": "p/"})], state=state)
    )
    assert [row["key"] for row in json.loads(response.scan.payload())] == ["p/1", "p/2"]


def test_query_prefix_validation():
    chaincode = HyperProvChaincode()
    assert not chaincode.invoke(
        stub_for("query", [json.dumps({"_prefix": 7})])
    ).is_ok
    # An empty prefix with no other selector fields is still rejected.
    assert not chaincode.invoke(
        stub_for("query", [json.dumps({"_prefix": ""})])
    ).is_ok


def test_query_parse_memo_does_not_serve_stale_records_after_update():
    chaincode = HyperProvChaincode()
    state = state_with_records(record("item", metadata={"rev": 1}))
    selector = [json.dumps({"metadata.rev": 2})]
    assert json.loads(chaincode.invoke(stub_for("query", selector, state=state)).scan.payload()) == []
    updated = record("item", metadata={"rev": 2})
    state.put("item", updated.to_json(), (1, 0))  # new version, new value
    rows = json.loads(chaincode.invoke(stub_for("query", selector, state=state)).scan.payload())
    assert [row["key"] for row in rows] == ["item"]


# ------------------------------------------------------------ set arguments
WELL_FORMED_SET = ["k", checksum_of(b"x"), "loc", "[]", "{}", "0"]


@pytest.mark.parametrize("position, value, named", [
    (4, json.dumps(["not", "a", "map"]), "metadata"),
    (4, "7", "metadata"),
    (4, "null", "metadata"),
    (4, "{not json", "metadata"),
    (3, json.dumps([["x"]]), "dependencies"),
    (3, json.dumps({"a": 1}), "dependencies"),
    (3, json.dumps("raw/a"), "dependencies"),
    (3, json.dumps([1]), "dependencies"),
    (3, json.dumps([""]), "dependencies"),
    (3, "[not json", "dependencies"),
    (5, "big", "size_bytes"),
])
def test_set_refuses_a_malformed_argument_and_names_it(org1_cert, position, value, named):
    args = list(WELL_FORMED_SET)
    args[position] = value
    stub = stub_for("set", args, creator=org1_cert)
    response = HyperProvChaincode().invoke(stub)
    assert response.status == ChaincodeResponse.ERROR == 500
    assert named in response.message
    assert stub.rw_set.writes == [] and stub.event is None


def test_set_stores_well_formed_arguments_as_given(org1_cert):
    state = state_with_records(record("raw/a"))
    args = list(WELL_FORMED_SET)
    args[3:6] = [json.dumps(["raw/a"]), json.dumps({"station": "tromso"}), "2048"]
    response = HyperProvChaincode().invoke(
        stub_for("set", args, state=state, creator=org1_cert)
    )
    assert response.status == ChaincodeResponse.OK
    stored = ProvenanceRecord.from_json(response.payload)
    assert (stored.dependencies, stored.metadata, stored.size_bytes) == (
        ["raw/a"], {"station": "tromso"}, 2048
    )


# --------------------------------------------------------------------- ACL
def test_set_rejected_for_foreign_organization(org2_cert):
    chaincode = HyperProvChaincode()
    state = state_with_records(record("owned", organization="org1"))
    response = chaincode.invoke(
        stub_for(
            "set", ["owned", checksum_of(b"new"), "loc"], state=state, creator=org2_cert
        )
    )
    assert not response.is_ok
    assert "owned by organization" in response.message


def test_set_allowed_for_owning_organization(org1_cert):
    chaincode = HyperProvChaincode()
    state = state_with_records(record("owned", organization="org1"))
    response = chaincode.invoke(
        stub_for(
            "set", ["owned", checksum_of(b"new"), "loc"], state=state, creator=org1_cert
        )
    )
    assert response.is_ok
    updated = ProvenanceRecord.from_json(response.payload)
    assert updated.metadata["previous_checksum"] == checksum_of(b"owned")


def test_delete_rejected_for_foreign_organization(org2_cert):
    chaincode = HyperProvChaincode()
    state = state_with_records(record("owned", organization="org1"))
    response = chaincode.invoke(
        stub_for("delete", ["owned"], state=state, creator=org2_cert)
    )
    assert not response.is_ok


def test_delete_allowed_for_owner(org1_cert):
    chaincode = HyperProvChaincode()
    state = state_with_records(record("owned", organization="org1"))
    response = chaincode.invoke(
        stub_for("delete", ["owned"], state=state, creator=org1_cert)
    )
    assert response.is_ok


# -------------------------------------------------------------------- events
def test_set_emits_provenance_recorded_event(org1_cert):
    chaincode = HyperProvChaincode()
    stub = stub_for("set", ["k", checksum_of(b"x"), "loc"], creator=org1_cert)
    assert chaincode.invoke(stub).is_ok
    assert stub.event is not None
    name, payload = stub.event
    assert name == HyperProvChaincode.RECORD_EVENT
    assert json.loads(payload)["key"] == "k"


@pytest.mark.parametrize("key", ["k", 'quote"d/ké\\y', "line\nbreak "])
def test_record_event_payload_is_json_dumps_of_its_fields(org1_cert, key):
    stub = stub_for("set", [key, checksum_of(b"x"), "loc"], creator=org1_cert)
    assert HyperProvChaincode().invoke(stub).is_ok
    assert stub.event[1] == json.dumps(
        {"key": key, "checksum": checksum_of(b"x"), "creator": org1_cert.subject}
    )


def test_failed_set_emits_no_event(org2_cert):
    chaincode = HyperProvChaincode()
    state = state_with_records(record("owned", organization="org1"))
    stub = stub_for("set", ["owned", checksum_of(b"x"), "loc"], state=state,
                    creator=org2_cert)
    assert not chaincode.invoke(stub).is_ok
    assert stub.event is None


def test_set_event_requires_name():
    stub = stub_for("set", [])
    with pytest.raises(ChaincodeError):
        stub.set_event("")
    stub.set_event("custom", "payload")
    assert stub.event == ("custom", "payload")


def test_set_memo_does_not_leak_across_retry_timestamps(org1_cert):
    """Regression: a retried tx reuses its tx_id with a later proposal
    timestamp; the memoized record must carry the endorsed attempt's
    timestamp, not the aborted one's."""
    from repro.chaincode.shim import ChaincodeStub
    from repro.ledger.history import HistoryDatabase

    chaincode = HyperProvChaincode()
    checksum = checksum_of(b"data")

    def attempt(timestamp):
        stub = ChaincodeStub(
            tx_id="tx-retry", channel="ch", function="set",
            args=["k", checksum, "loc"], world_state=WorldState(),
            history=HistoryDatabase(), creator=org1_cert, timestamp=timestamp,
        )
        response = chaincode.invoke(stub)
        assert response.is_ok
        return json.loads(response.payload)

    assert attempt(1.0)["timestamp"] == 1.0
    assert attempt(2.5)["timestamp"] == 2.5
