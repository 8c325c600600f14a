"""Tests for the extended client/chaincode features: rich queries,
ownership access control, chaincode events and parallel validation."""

import pytest

from repro.api.protocol import StoreRequest
from repro.common.errors import ChaincodeError
from repro.common.hashing import checksum_of
from repro.core.client import HyperProvClient
from repro.core.topology import build_desktop_deployment
from repro.ledger.transaction import TxValidationCode
from tests.internals import live_topics, organization


# ----------------------------------------------------------------- rich query
def test_query_records_by_creator_and_metadata(desktop_deployment):
    client = desktop_deployment.client
    store = client.as_store()
    store.submit(StoreRequest(key="q/a", data=b"a", metadata={"station": "tromso-01"}))
    store.submit(StoreRequest(key="q/b", data=b"b", metadata={"station": "oslo-02"}))
    desktop_deployment.drain()

    by_creator = store.query({"creator": "hyperprov-client"}).records
    assert {view.key for view in by_creator} == {"q/a", "q/b"}

    by_station = store.query({"metadata.station": "tromso-01"}).records
    assert [view.key for view in by_station] == ["q/a"]

    none = store.query({"creator": "nobody"}).records
    assert none == ()


def test_query_records_by_dependency(desktop_deployment):
    client = desktop_deployment.client
    store = client.as_store()
    store.submit(StoreRequest(key="q/raw", data=b"raw"))
    desktop_deployment.drain()
    store.submit(StoreRequest(key="q/derived", data=b"derived", dependencies=("q/raw",)))
    desktop_deployment.drain()
    rows = store.query({"dependencies": "q/raw"}).records
    assert [view.key for view in rows] == ["q/derived"]


def test_query_records_rejects_bad_selector(desktop_deployment):
    client = desktop_deployment.client
    client.as_store().submit(StoreRequest(key="q/x", data=b"x"))
    desktop_deployment.drain()
    with pytest.raises(ChaincodeError):
        client.as_store().query({})


# ------------------------------------------------------------ access control
@pytest.fixture
def second_org_client(desktop_deployment):
    """A client enrolled with org2 on the same channel."""
    org2 = organization(desktop_deployment.channel.msp, "org2")
    identity = org2.enroll("org2-client", role="client")
    device = desktop_deployment.peers[1].device
    desktop_deployment.fabric.add_client(
        "org2-client",
        identity=identity,
        device=device,
        host_node=desktop_deployment.peers[1].name,
        anchor_peer=desktop_deployment.peers[1].name,
    )
    return HyperProvClient(
        network=desktop_deployment.fabric,
        client_name="org2-client",
        storage=desktop_deployment.storage,
    )


def test_other_organization_cannot_update_owned_key(desktop_deployment, second_org_client):
    owner = desktop_deployment.client.as_store()
    owner.submit(StoreRequest(key="owned/key", data=b"v1"))
    desktop_deployment.drain()

    # org2's client tries to overwrite org1's record: rejected at endorsement.
    attempt = second_org_client.as_store().submit(
        StoreRequest(key="owned/key", checksum=checksum_of(b"forged"), location="loc")
    )
    desktop_deployment.drain()
    assert attempt.done
    assert attempt.handle.validation_code is TxValidationCode.ENDORSEMENT_POLICY_FAILURE

    # The original record is untouched, and the owner can still update it.
    assert owner.get("owned/key").checksum == checksum_of(b"v1")
    update = owner.submit(StoreRequest(key="owned/key", data=b"v2"))
    desktop_deployment.drain()
    assert update.ok


def test_other_organization_cannot_delete_owned_key(desktop_deployment, second_org_client):
    owner = desktop_deployment.client.as_store()
    owner.submit(StoreRequest(key="owned/delete-me", data=b"v1"))
    desktop_deployment.drain()
    handle = desktop_deployment.fabric.submit_transaction(
        "org2-client", "hyperprov", "delete", ["owned/delete-me"]
    )
    desktop_deployment.drain()
    assert not handle.is_valid
    assert owner.get("owned/delete-me").checksum == checksum_of(b"v1")


def test_second_org_can_create_its_own_keys(desktop_deployment, second_org_client):
    store = second_org_client.as_store()
    post = store.submit(StoreRequest(key="org2/data", data=b"theirs"))
    desktop_deployment.drain()
    assert post.ok
    record = store.get("org2/data")
    assert record.organization == "org2"


# ------------------------------------------------------------------- events
def test_provenance_recorded_event_fires_on_commit(desktop_deployment):
    client = desktop_deployment.client
    received = []
    client.on_provenance_recorded(received.append)

    post = client.as_store().submit(StoreRequest(key="events/1", data=b"payload"))
    assert received == []  # nothing until the block commits
    desktop_deployment.drain()

    assert len(received) == 1
    event = received[0]
    assert event["key"] == "events/1"
    assert event["checksum"] == post.record.checksum
    assert event["creator"] == "hyperprov-client"
    assert event["block_number"] == post.handle.commit_block


def test_cancelled_provenance_listener_hears_nothing_more(desktop_deployment):
    client = desktop_deployment.client
    received = []
    subscription = client.on_provenance_recorded(received.append)
    store = client.as_store()
    store.submit(StoreRequest(key="events/1", data=b"one"))
    desktop_deployment.drain()
    assert [event["key"] for event in received] == ["events/1"]

    subscription.cancel()
    store.submit(StoreRequest(key="events/2", data=b"two"))
    desktop_deployment.drain()
    assert [event["key"] for event in received] == ["events/1"]
    assert "chaincode_event:provenance_recorded" not in live_topics(client.network.events)


def test_no_event_for_invalidated_transaction(desktop_deployment):
    client = desktop_deployment.client
    received = []
    client.on_provenance_recorded(received.append)
    # Two conflicting updates: only the winner emits an event.
    store = client.as_store()
    store.submit(StoreRequest(key="events/conflict", checksum=checksum_of(b"a"), location="loc"))
    store.submit(StoreRequest(key="events/conflict", checksum=checksum_of(b"b"), location="loc"))
    desktop_deployment.drain()
    assert len(received) == 1


# -------------------------------------------------------- parallel validation
def test_parallel_validation_flag_reaches_peers():
    deployment = build_desktop_deployment(parallel_validation=True, seed=2)
    assert all(peer.parallel_validation for peer in deployment.peers)
    post = deployment.client.as_store().submit(StoreRequest(key="pv/1", data=b"x"))
    deployment.drain()
    assert post.ok
