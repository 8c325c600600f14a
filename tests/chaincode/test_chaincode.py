"""Tests for the chaincode shim, records, lifecycle and the HyperProv chaincode."""

import json

import pytest

from repro.chaincode.hyperprov import HyperProvChaincode
from repro.chaincode.lifecycle import ChaincodeRegistry
from repro.chaincode.records import ProvenanceRecord
from repro.chaincode.shim import ChaincodeResponse, ChaincodeStub
from repro.common.errors import ChaincodeError, NotFoundError, ValidationError
from repro.common.hashing import checksum_of
from repro.ledger.history import HistoryDatabase
from repro.ledger.world_state import WorldState
from repro.membership.identity import Organization
from repro.membership.policies import MajorityPolicy


@pytest.fixture
def creator_cert():
    org = Organization("org1")
    return org.enroll("client1", role="client").certificate


def make_stub(function, args, world_state=None, history=None, creator=None, tx_id="tx-1"):
    return ChaincodeStub(
        tx_id=tx_id,
        channel="ch",
        function=function,
        args=args,
        world_state=world_state if world_state is not None else WorldState(),
        history=history if history is not None else HistoryDatabase(),
        creator=creator,
        timestamp=1.0,
    )


def committed_state_with(key, record_json):
    state = WorldState()
    state.put(key, record_json, (0, 0))
    return state


# ----------------------------------------------------------------------- shim
def test_stub_get_state_records_read_version():
    state = WorldState()
    state.put("k", "v", (3, 1))
    stub = make_stub("get", ["k"], world_state=state)
    assert stub.get_state("k") == "v"
    assert stub.rw_set.reads[0].version == (3, 1)


def test_stub_put_state_is_buffered_not_applied():
    state = WorldState()
    stub = make_stub("set", [], world_state=state)
    stub.put_state("k", "v")
    assert state.get("k") is None
    assert stub.rw_set.writes[0].key == "k"


def test_stub_read_your_own_writes():
    stub = make_stub("set", [])
    stub.put_state("k", "v-new")
    assert stub.get_state("k") == "v-new"


def test_stub_del_state_marks_delete():
    stub = make_stub("delete", [])
    stub.put_state("k", "v")
    stub.del_state("k")
    assert stub.get_state("k") is None
    assert stub.rw_set.writes[-1].is_delete


def test_stub_put_empty_key_rejected():
    with pytest.raises(ChaincodeError):
        make_stub("set", []).put_state("", "v")


def test_stub_counts_state_operations():
    stub = make_stub("set", [])
    stub.put_state("a", "1")
    stub.get_state("a")
    stub.get_state_by_range("", "")
    assert stub.state_operations == 3


def test_stub_scans_hand_back_the_run_of_committed_versions():
    state = WorldState()
    for index, key in enumerate(["a/1", "a/2", "b/1", "gone"]):
        state.put(key, key.upper(), (0, index))
    state.delete("gone", (1, 0))
    a1, a2, b1 = (state.get(key) for key in ("a/1", "a/2", "b/1"))
    stub = make_stub("query", [], world_state=state)
    # The eager forms fetched their run (a list, read in full by whoever
    # takes it); a row is the committed version itself and carries its key.
    assert stub.get_state_by_range("a/2", "") == [a2, b1]
    assert stub.get_state_by_prefix("a/") == [a1, a2]
    assert stub.get_state_by_keys(["a/1", "gone", "never", "b/1"]) == [a1, b1]
    assert stub.get_state_by_range("", "")[0] is a1 and a1.key == "a/1"
    # The lazy forms look a row up when it is pulled: one-shot iterators.
    for scan, expected in (
        (stub.iter_state_by_prefix("a/"), [a1, a2]),
        (stub.iter_state_by_prefix("a/", "a/1"), [a2]),
        (stub.iter_state_by_range("a/2", "", "gone"), []),
        (stub.iter_state_by_range("", "b/1", "a/1"), [a2]),
    ):
        assert iter(scan) is scan
        assert list(scan) == expected and list(scan) == []
    assert stub.state_operations == 8 and stub.rw_set.reads == []


def test_stub_read_log_holds_the_committed_entries_point_reads_returned():
    state = WorldState()
    state.put("k", "v", (3, 1))
    stub = ChaincodeStub(
        tx_id="tx-1", channel="ch", function="set", args=[], world_state=state,
        history=HistoryDatabase(), read_log=[],
    )
    stub.put_state("own", "write")
    assert (stub.get_state("k"), stub.get_state("absent"), stub.get_state("own")) == (
        "v", None, "write"
    )
    # Committed entries only: a read served from the pending writes is
    # decided by the invocation itself, not by the ledger.
    assert stub.read_log == [("k", state.get("k")), ("absent", None)]
    stub.get_state_by_range("", "")
    assert stub.read_log is None
    stub.get_state("k")
    assert stub.read_log is None


def test_stub_keeps_no_read_log_unless_asked():
    stub = make_stub("get", ["k"])
    stub.get_state("k")
    assert stub.read_log is None


# -------------------------------------------------------------------- records
def test_record_roundtrip_json():
    record = ProvenanceRecord(
        key="k", checksum=checksum_of(b"x"), location="ssh://storage/k",
        creator="client1", organization="org1", certificate_fingerprint="abcd",
        dependencies=["dep1"], metadata={"note": "hello"}, size_bytes=1,
    )
    parsed = ProvenanceRecord.from_json(record.to_json())
    assert parsed == record


def test_record_validation_rejects_bad_checksum():
    record = ProvenanceRecord(
        key="k", checksum="short", location="loc", creator="c",
        organization="o", certificate_fingerprint="",
    )
    with pytest.raises(ValidationError):
        record.validate()


def test_record_validation_rejects_missing_fields():
    with pytest.raises(ValidationError):
        ProvenanceRecord(
            key="", checksum=checksum_of(b"x"), location="loc", creator="c",
            organization="o", certificate_fingerprint="",
        ).validate()
    with pytest.raises(ValidationError):
        ProvenanceRecord(
            key="k", checksum=checksum_of(b"x"), location="", creator="c",
            organization="o", certificate_fingerprint="",
        ).validate()


def test_record_from_malformed_json_raises():
    with pytest.raises(ValidationError):
        ProvenanceRecord.from_json("{not json")


def test_record_matches_checksum():
    checksum = checksum_of(b"x")
    record = ProvenanceRecord(
        key="k", checksum=checksum, location="loc", creator="c",
        organization="o", certificate_fingerprint="",
    )
    assert record.matches_checksum(checksum)
    assert not record.matches_checksum(checksum_of(b"y"))
    assert not record.matches_checksum("")


# ------------------------------------------------------------------ hyperprov
def test_set_then_get_roundtrip(creator_cert):
    chaincode = HyperProvChaincode()
    state = WorldState()
    checksum = checksum_of(b"payload")
    set_stub = make_stub(
        "set", ["data/1", checksum, "ssh://storage/data/1", "[]", "{}", "7"],
        world_state=state, creator=creator_cert,
    )
    response = chaincode.invoke(set_stub)
    assert response.is_ok

    # Simulate the commit, then query.
    committed = committed_state_with("data/1", set_stub.rw_set.writes[0].value)
    get_stub = make_stub("get", ["data/1"], world_state=committed, creator=creator_cert)
    get_response = chaincode.invoke(get_stub)
    record = ProvenanceRecord.from_json(get_response.payload)
    assert record.checksum == checksum
    assert record.creator == "client1"
    assert record.organization == "org1"
    assert record.size_bytes == 7


def test_set_requires_creator_certificate():
    chaincode = HyperProvChaincode()
    stub = make_stub("set", ["k", checksum_of(b"x"), "loc"], creator=None)
    assert not chaincode.invoke(stub).is_ok


def test_set_requires_minimum_args(creator_cert):
    chaincode = HyperProvChaincode()
    stub = make_stub("set", ["k"], creator=creator_cert)
    response = chaincode.invoke(stub)
    assert not response.is_ok
    assert "requires" in response.message


def test_set_rejects_unknown_dependency(creator_cert):
    chaincode = HyperProvChaincode()
    stub = make_stub(
        "set",
        ["k", checksum_of(b"x"), "loc", json.dumps(["missing-dep"])],
        creator=creator_cert,
    )
    response = chaincode.invoke(stub)
    assert not response.is_ok
    assert "missing-dep" in response.message


def test_set_accepts_existing_dependency(creator_cert):
    chaincode = HyperProvChaincode()
    dependency_record = ProvenanceRecord(
        key="raw", checksum=checksum_of(b"raw"), location="loc", creator="client1",
        organization="org1", certificate_fingerprint="",
    )
    state = committed_state_with("raw", dependency_record.to_json())
    stub = make_stub(
        "set",
        ["derived", checksum_of(b"d"), "loc2", json.dumps(["raw"])],
        world_state=state, creator=creator_cert,
    )
    response = chaincode.invoke(stub)
    assert response.is_ok
    record = ProvenanceRecord.from_json(response.payload)
    assert record.dependencies == ["raw"]


def test_get_missing_key_errors(creator_cert):
    chaincode = HyperProvChaincode()
    response = chaincode.invoke(make_stub("get", ["ghost"], creator=creator_cert))
    assert not response.is_ok


def test_checkhash_matches_and_mismatches(creator_cert):
    chaincode = HyperProvChaincode()
    checksum = checksum_of(b"x")
    record = ProvenanceRecord(
        key="k", checksum=checksum, location="loc", creator="client1",
        organization="org1", certificate_fingerprint="",
    )
    state = committed_state_with("k", record.to_json())
    ok = chaincode.invoke(make_stub("checkhash", ["k", checksum], world_state=state))
    bad = chaincode.invoke(make_stub("checkhash", ["k", checksum_of(b"y")], world_state=state))
    assert json.loads(ok.payload)["matches"] is True
    assert json.loads(bad.payload)["matches"] is False


@pytest.mark.parametrize("value", [
    "[1]", "3", "null", '{"timestamp": "x"}', "not json",
    '{"dependencies": 5}', '{"metadata": [1]}',
])
def test_from_json_rejects_every_non_record_with_validation_error(value):
    with pytest.raises(ValidationError, match="malformed provenance record"):
        ProvenanceRecord.from_json(value)


@pytest.mark.parametrize("value", ["[1]", "3", "null", '{"timestamp": "x"}'])
def test_checkhash_on_a_garbage_ledger_value_is_an_error_response_not_a_crash(value):
    state = committed_state_with("k", value)
    response = HyperProvChaincode().invoke(
        make_stub("checkhash", ["k", checksum_of(b"x")], world_state=state)
    )
    assert not response.is_ok and "malformed provenance record" in response.message


@pytest.mark.parametrize("value", ["[1]", "3", "null"])
def test_scan_path_and_from_json_agree_that_a_non_object_is_not_a_record(value):
    state = committed_state_with("k", value)
    rows = HyperProvChaincode().invoke(
        make_stub("query", [json.dumps({"_prefix": "k"})], world_state=state)
    )
    assert json.loads(rows.scan.payload()) == []


def test_getkeyhistory_returns_all_versions(creator_cert):
    chaincode = HyperProvChaincode()
    history = HistoryDatabase()
    history.record("k", "t1", 0, 0, 1.0, "v1")
    history.record("k", "t2", 1, 0, 2.0, "v2")
    response = chaincode.invoke(make_stub("getkeyhistory", ["k"], history=history))
    entries = json.loads(response.history.payload())
    assert [e["tx_id"] for e in entries] == ["t1", "t2"]


def test_getkeyhistory_empty_errors():
    chaincode = HyperProvChaincode()
    response = chaincode.invoke(make_stub("getkeyhistory", ["ghost"]))
    assert not response.is_ok


def test_getbyrange_excludes_other_prefixes(creator_cert):
    chaincode = HyperProvChaincode()
    state = WorldState()
    for key in ["a/1", "a/2", "b/1"]:
        state.put(key, "{}", (0, 0))
    response = chaincode.invoke(make_stub("getbyrange", ["a/", "a/~"], world_state=state))
    rows = json.loads(response.scan.payload())
    assert [row["key"] for row in rows] == ["a/1", "a/2"]


def test_getdependencies(creator_cert):
    chaincode = HyperProvChaincode()
    record = ProvenanceRecord(
        key="k", checksum=checksum_of(b"x"), location="loc", creator="client1",
        organization="org1", certificate_fingerprint="", dependencies=["a", "b"],
    )
    state = committed_state_with("k", record.to_json())
    response = chaincode.invoke(make_stub("getdependencies", ["k"], world_state=state))
    assert json.loads(response.payload) == ["a", "b"]


def test_delete_existing_and_missing(creator_cert):
    chaincode = HyperProvChaincode()
    state = committed_state_with("k", "{}")
    ok = chaincode.invoke(make_stub("delete", ["k"], world_state=state))
    assert ok.is_ok
    missing = chaincode.invoke(make_stub("delete", ["ghost"]))
    assert not missing.is_ok


def test_unknown_function_errors():
    chaincode = HyperProvChaincode()
    response = chaincode.invoke(make_stub("frobnicate", []))
    assert not response.is_ok
    assert "unknown function" in response.message


def test_init_is_an_unknown_function_not_a_crash():
    response = HyperProvChaincode().invoke(make_stub("init", []))
    assert response.status == ChaincodeResponse.ERROR
    assert response.message.startswith("unknown function 'init'")
    assert "'init'" not in response.message.partition("expected one of")[2]


class NoScanStub(ChaincodeStub):
    """A stub on which every scan form raises."""

    def _no_scan(self, *args):
        raise AssertionError(f"{self.function} scanned the world state")

    get_state_by_range = get_state_by_prefix = get_state_by_keys = _no_scan
    iter_state_by_range = iter_state_by_prefix = _no_scan


#: Arguments that make each invoke function succeed on the state below.
INVOKE_ARGS = {
    "set": ["k", checksum_of(b"v2"), "loc", json.dumps(["dep"]), json.dumps({"m": 1}), "2"],
    "delete": ["dep"],
}


def test_no_invoke_function_scans(creator_cert):
    """A scan's read set never reaches MVCC validation: no function that
    writes (and so commits) runs a scan."""
    assert set(INVOKE_ARGS) == HyperProvChaincode.INVOKE_FUNCTIONS
    for function, args in INVOKE_ARGS.items():
        state = WorldState()
        for key in ("k", "dep"):
            state.put(key, ProvenanceRecord(
                key=key, checksum=checksum_of(key.encode()), location="loc",
                creator=creator_cert.subject, organization="org1",
                certificate_fingerprint="fp",
            ).to_json(), (0, 0))
        stub = NoScanStub(
            tx_id="tx", channel="ch", function=function, args=args,
            world_state=state, history=HistoryDatabase(), creator=creator_cert,
            timestamp=1.0,
        )
        response = HyperProvChaincode().invoke(stub)
        assert response.is_ok, (function, response.message)
        assert stub.rw_set.writes


# ------------------------------------------------------------------- lifecycle
def test_lifecycle_instantiate_and_install():
    registry = ChaincodeRegistry()
    definition = registry.instantiate("hyperprov", "1.0", HyperProvChaincode(),
                                      MajorityPolicy(["org1"]))
    definition.installed_on.add("peer0")
    assert definition.is_installed_on("peer0")
    assert not definition.is_installed_on("peer1")
    assert registry.find("hyperprov") is definition


def test_lifecycle_duplicate_version_rejected():
    registry = ChaincodeRegistry()
    registry.instantiate("cc", "1.0", HyperProvChaincode(), MajorityPolicy(["org1"]))
    with pytest.raises(ChaincodeError):
        registry.instantiate("cc", "1.0", HyperProvChaincode(), MajorityPolicy(["org1"]))


def test_lifecycle_upgrade_keeps_installations():
    registry = ChaincodeRegistry()
    registry.instantiate("cc", "1.0", HyperProvChaincode(), MajorityPolicy(["org1"]))
    registry.get("cc").installed_on.add("peer0")
    registry.instantiate("cc", "2.0", HyperProvChaincode(), MajorityPolicy(["org1"]))
    assert registry.get("cc").version == "2.0"
    assert registry.get("cc").is_installed_on("peer0")


def test_lifecycle_unknown_chaincode():
    registry = ChaincodeRegistry()
    with pytest.raises(NotFoundError):
        registry.get("ghost")
    assert registry.find("ghost") is None
