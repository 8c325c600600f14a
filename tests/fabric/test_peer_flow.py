"""Tests for peers (endorse/validate/commit) and the Fabric network flow."""

import json

import pytest

from repro.chaincode.records import ProvenanceRecord
from repro.common.errors import EndorsementError
from repro.api.protocol import StoreRequest
from repro.common.hashing import checksum_of, sha256_hex
from repro.common.serialization import canonical_json
from repro.consensus.batching import BatchConfig
from repro.core.topology import build_desktop_deployment
from repro.fabric.proposal import Proposal
from repro.ledger.transaction import TxValidationCode


def make_proposal(identity, function, args, tx_id="tx-1", chaincode="hyperprov"):
    unsigned = Proposal(
        tx_id=tx_id, channel="test-channel", chaincode=chaincode, function=function,
        args=args, creator=identity.certificate, signature="", timestamp=0.0,
    )
    return Proposal(
        tx_id=tx_id, channel="test-channel", chaincode=chaincode, function=function,
        args=args, creator=identity.certificate,
        signature=identity.sign(unsigned.signed_bytes()), timestamp=0.0,
        size_bytes=len(unsigned.signed_bytes()),
    )


# ------------------------------------------------------------------------ peer
def test_peer_endorses_valid_set_proposal(single_peer, organizations):
    client = organizations[0].enroll("client1", role="client")
    proposal = make_proposal(
        client, "set", ["k", checksum_of(b"x"), "ssh://storage/k"]
    )
    response, finished_at = single_peer.endorse(proposal, at_time=0.0)
    assert response.is_ok
    assert response.endorsement is not None
    assert response.endorsement.organization == "org1"
    assert finished_at > 0.0
    assert response.rw_set.writes[0].key == "k"


def test_peer_refuses_chaincode_not_installed_on_it(single_peer, channel, organizations):
    client = organizations[0].enroll("client1", role="client")
    channel.chaincodes.get("hyperprov").installed_on.discard(single_peer.name)
    proposal = make_proposal(client, "set", ["k", checksum_of(b"x"), "ssh://storage/k"])
    with pytest.raises(EndorsementError, match="not installed"):
        single_peer.endorse(proposal, at_time=0.0)


def test_large_scan_response_is_signed_over_the_read_set_digest(single_peer, organizations, msp):
    """A query over 500 rows is endorsed like any other proposal: the
    signature covers the digest of its read set — the 32 rows it returns,
    not the 500 it visits — and verifies against the MSP."""
    for index in range(500):
        key = f"scan/{index:04d}"
        record = ProvenanceRecord(
            key=key, checksum=checksum_of(key.encode()), location=f"ssh://s/{key}",
            creator='cam "7"\\é', organization="org1", certificate_fingerprint="fp",
            metadata={"hot": index % 16 == 0},
        )
        single_peer.world_state.put(key, record.to_json(), (index // 10, index % 10))
    client = organizations[0].enroll("client1", role="client")
    proposal = make_proposal(
        client, "query", ['{"_limit": 50, "_prefix": "scan/", "metadata.hot": true}']
    )
    response, _ = single_peer.query(proposal, at_time=0.0)
    assert response.is_ok and len(json.loads(response.scan.payload())["records"]) == 32
    rows = response.scan.rows
    assert [(read.key, read.version) for read in response.rw_set.reads] == \
        [(row.key, row.version) for row in rows]
    endorsement = response.endorsement
    assert endorsement is not None
    digest = response.rw_set.digest()
    assert digest == sha256_hex(canonical_json(response.rw_set.to_dict()))
    assert endorsement.response_digest == digest
    assert msp.verify_signature(
        endorsement.certificate, digest.encode("ascii"), endorsement.signature
    )


def test_peer_rejects_bad_client_signature(single_peer, organizations):
    client = organizations[0].enroll("client1", role="client")
    proposal = make_proposal(client, "set", ["k", checksum_of(b"x"), "loc"])
    forged = Proposal(
        tx_id=proposal.tx_id, channel=proposal.channel, chaincode=proposal.chaincode,
        function=proposal.function, args=["k", checksum_of(b"y"), "loc"],
        creator=proposal.creator, signature=proposal.signature, timestamp=0.0,
    )
    response, _ = single_peer.endorse(forged, at_time=0.0)
    assert not response.is_ok
    assert response.endorsement is None


def test_peer_rejects_uninstalled_chaincode(single_peer, organizations):
    client = organizations[0].enroll("client1", role="client")
    proposal = make_proposal(client, "set", ["k", checksum_of(b"x"), "loc"],
                             chaincode="unknown-cc")
    with pytest.raises(Exception):
        single_peer.endorse(proposal, at_time=0.0)


def test_peer_endorsement_charges_device_time(single_peer, organizations):
    client = organizations[0].enroll("client1", role="client")
    proposal = make_proposal(client, "set", ["k", checksum_of(b"x"), "loc"])
    single_peer.endorse(proposal, at_time=0.0)
    assert single_peer.device.busy_time(component="cpu") > 0.0


def test_peer_rejects_chaincode_app_error(single_peer, organizations):
    client = organizations[0].enroll("client1", role="client")
    proposal = make_proposal(client, "get", ["missing-key"])
    response, _ = single_peer.endorse(proposal, at_time=0.0)
    assert not response.is_ok


# ------------------------------------------------------------------ full flow
def test_full_invoke_flow_commits_on_all_peers(desktop_deployment):
    store = desktop_deployment.client.as_store()
    post = store.submit(
        StoreRequest(key="data/1", checksum=checksum_of(b"x"),
                     location="ssh://storage/data/1")
    )
    desktop_deployment.drain()
    assert post.done
    assert post.ok
    assert post.handle.latency_s > 0
    heights = desktop_deployment.fabric.ledger_heights()
    assert set(heights.values()) == {1}
    for peer in desktop_deployment.peers:
        assert peer.committed(post.handle.tx_id)
        assert peer.block_store.verify_chain()


def test_query_does_not_create_blocks(desktop_deployment):
    store = desktop_deployment.client.as_store()
    post = store.submit(StoreRequest(key="q/1", checksum=checksum_of(b"x"), location="loc"))
    desktop_deployment.drain()
    heights_before = desktop_deployment.fabric.ledger_heights()
    result = store.get("q/1")
    assert result.checksum == checksum_of(b"x")
    assert result.latency_s > 0
    assert desktop_deployment.fabric.ledger_heights() == heights_before
    assert post.ok


def test_duplicate_key_updates_create_history(desktop_deployment):
    store = desktop_deployment.client.as_store()
    for version in range(3):
        store.submit(
            StoreRequest(key="versioned", checksum=checksum_of(f"v{version}".encode()),
                         location="loc")
        )
        desktop_deployment.drain()
    assert len(store.history("versioned")) == 3


def test_mvcc_conflict_between_concurrent_writers(desktop_deployment):
    """Two transactions writing the same key in the same block: the second
    one read the same version as the first, so it must be invalidated."""
    store = desktop_deployment.client.as_store()
    checksum = checksum_of(b"x")
    first = store.submit(StoreRequest(key="conflict", checksum=checksum, location="loc-a"))
    second = store.submit(StoreRequest(key="conflict", checksum=checksum, location="loc-b"))
    desktop_deployment.drain()
    codes = {first.handle.validation_code, second.handle.validation_code}
    assert TxValidationCode.VALID in codes
    assert TxValidationCode.MVCC_READ_CONFLICT in codes


def test_endorsement_failure_completes_handle_without_block(desktop_deployment):
    client = desktop_deployment.client
    # 'get' on a missing key fails at endorsement time; submit it as an invoke.
    handle = desktop_deployment.fabric.submit_transaction(
        "hyperprov-client", "hyperprov", "set", ["only-a-key"],
    )
    desktop_deployment.drain()
    assert handle.is_complete
    assert not handle.is_valid


def test_batch_size_one_gives_one_block_per_tx():
    deployment = build_desktop_deployment(
        batch_config=BatchConfig(max_message_count=1), seed=1
    )
    store = deployment.client.as_store()
    for i in range(3):
        store.submit(StoreRequest(key=f"k{i}", checksum=checksum_of(b"x"), location="loc"))
        deployment.drain()
    assert set(deployment.fabric.ledger_heights().values()) == {3}


def test_transaction_handle_timings_populated(desktop_deployment):
    store = desktop_deployment.client.as_store()
    post = store.submit(StoreRequest(key="t/1", checksum=checksum_of(b"x"), location="loc"))
    desktop_deployment.drain()
    handle = post.handle
    assert handle.endorsed_at > handle.submitted_at
    assert handle.ordered_at >= handle.endorsed_at
    assert handle.committed_at > handle.ordered_at
    assert "endorsement_s" in handle.timings


def test_transaction_ids_are_deterministic_per_deployment():
    def first_tx_id():
        deployment = build_desktop_deployment(seed=42)
        handle = deployment.client.as_store().submit(StoreRequest(key="ids/a", data=b"a"))
        deployment.drain()
        return handle.handle.tx_id

    tx_id = first_tx_id()
    assert tx_id == first_tx_id()
    prefix, index, digest = tx_id.split("-")
    assert (prefix, index, len(digest)) == ("tx", "0", 8)
