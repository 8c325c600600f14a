"""Handle completion: every registered handle resolves, in block order, and leaves no residue."""

import pytest

from repro.api.protocol import StoreRequest
from repro.consensus.batching import BatchConfig
from repro.core.client import HyperProvClient
from repro.core.topology import build_desktop_deployment
from repro.ledger.transaction import TxValidationCode
from tests.internals import organization


def metadata_post(store, key: str, version: int = 0):
    return store.submit(
        StoreRequest(key=key, checksum=f"{version:064x}", location=f"file://{key}")
    )


def add_remote_client(deployment, name: str, anchor_peer: str) -> HyperProvClient:
    """A second client on its own host node, anchored on ``anchor_peer``."""
    identity = organization(deployment.channel.msp, "org2").enroll(name, role="client")
    deployment.fabric.add_client(
        name, identity=identity, device=deployment.peers[1].device,
        host_node=f"{name}-host", anchor_peer=anchor_peer,
    )
    return HyperProvClient(network=deployment.fabric, client_name=name)


def test_drain_leaves_no_pending_residue():
    deployment = build_desktop_deployment(seed=42)
    fabric = deployment.fabric
    store = deployment.client.as_store()

    # MVCC-invalid: two updates of one key race into the same block.
    racers = [metadata_post(store, "hot", version) for version in range(2)]
    # Partition-delayed: the second client's anchor peer misses the block.
    anchor = deployment.peers[3].name
    late = add_remote_client(deployment, "late", anchor).as_store()
    others = sorted(set(deployment.network.nodes) - {anchor})
    deployment.network.partitions.partition([others, [anchor]])
    delayed = metadata_post(late, "delayed")
    assert fabric.flush_and_drain().stop_reason == "deadlock"
    assert not delayed.done
    assert fabric.in_flight() == len(fabric._pending_index) == 1
    deployment.network.partitions.heal()
    assert fabric.catch_up_peers() == 1

    assert fabric.flush_and_drain().stop_reason == "idle"
    codes = sorted(post.handle.validation_code.name for post in racers)
    assert codes == ["MVCC_READ_CONFLICT", "VALID"]
    assert delayed.ok
    assert fabric.in_flight() == 0
    assert len(fabric._pending_index) == 0


@pytest.mark.parametrize("crashed", [4, 2])
def test_chaincode_events_fire_once_per_block_whoever_commits_it_first(crashed):
    """All four peers down at the cut: nobody commits the block when it is
    ordered, so the first peer to catch up must publish its events (the
    gap PR 15 left).  Two down: the ordered delivery published them, and
    the two peers catching up later must not publish them again."""
    deployment = build_desktop_deployment(seed=42)
    fabric, engine = deployment.fabric, deployment.engine
    events = []
    deployment.client.on_provenance_recorded(events.append)
    post = metadata_post(deployment.client.as_store(), "gap/1")
    for peer in deployment.peers[-crashed:]:
        engine.schedule_at(0.5, lambda name=peer.name: fabric.crash_peer(name))
        engine.schedule_at(5.0, lambda name=peer.name: fabric.restart_peer(name))

    assert fabric.flush_and_drain().stop_reason == "idle"
    assert post.handle.validation_code is TxValidationCode.VALID
    assert all(peer.committed(post.handle.tx_id) for peer in deployment.peers)
    assert [event["key"] for event in events] == ["gap/1"]
    assert events[0]["block_number"] == post.handle.commit_block


def test_two_clients_in_one_block_complete_in_block_order():
    deployment = build_desktop_deployment(
        seed=42, batch_config=BatchConfig(max_message_count=4)
    )
    local = deployment.client.as_store()  # co-located with its anchor peer
    remote = add_remote_client(deployment, "remote", deployment.peers[0].name).as_store()
    completed = []
    posts = {}
    for index, (owner, store) in enumerate(
        [("local", local), ("remote", remote), ("local", local), ("remote", remote)]
    ):
        post = metadata_post(store, f"{owner}/{index}")
        post.handle.on_complete(lambda handle: completed.append(handle.tx_id))
        posts[post.handle.tx_id] = (owner, post)
    deployment.drain()

    block = deployment.peers[0].block_store.block(0)
    block_order = [tx.tx_id for tx in block.transactions]
    assert sorted(block_order) == sorted(posts)
    assert completed == block_order
    for owner, post in posts.values():
        assert post.handle.validation_code is TxValidationCode.VALID
        assert post.handle.commit_block == 0
        notify = post.handle.timings["commit_notify_s"]
        # The co-located client hears of the commit over loopback, the
        # remote one over its own anchor→host link.
        assert notify == 0.0 if owner == "local" else notify > 0.0
