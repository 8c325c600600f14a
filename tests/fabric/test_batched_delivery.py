"""Commit delivery: handle completion, buffering, window flushes, virtual-time parity."""

import pytest

from repro.api.protocol import StoreRequest
from repro.common.errors import DeadlineExceededError
from repro.consensus.batching import BatchConfig
from repro.core.client import HyperProvClient
from repro.core.topology import build_desktop_deployment
from repro.ledger.transaction import TxValidationCode
from repro.middleware.config import PipelineConfig
from repro.workloads.fleet import (
    FleetSpec,
    build_fleet,
    commit_log_lines,
    submit_fleet,
)


def tiny_spec(**overrides) -> FleetSpec:
    base = dict(
        devices=20, shards=2, rate_per_device_s=0.1, duration_s=30.0,
        seed=5, batch_config=BatchConfig(max_message_count=1),
    )
    base.update(overrides)
    return FleetSpec(**base)


def run_mode(batch_commit_delivery: bool):
    deployment = build_fleet(tiny_spec(), batch_commit_delivery=batch_commit_delivery)
    submit_fleet(deployment)
    deployment.drain()
    return deployment


class TestBatchedCommitDelivery:
    def test_virtual_time_identical_to_per_block_path(self):
        scan = run_mode(batch_commit_delivery=False)
        indexed = run_mode(batch_commit_delivery=True)
        for site in scan.sites:
            assert commit_log_lines(indexed, site) == commit_log_lines(scan, site)

    def test_commit_batch_published_per_flush_not_per_block(self):
        deployment = build_fleet(tiny_spec(), batch_commit_delivery=True)
        batches = []
        deployment.fabric.events.subscribe(
            "commit_batch", lambda _topic, entries: batches.append(entries)
        )
        submit_fleet(deployment)
        deployment.drain()  # flush_and_drain flushes once at the end
        blocks = sum(len(entries) for entries in batches)
        assert blocks > 1
        # One batch per shard buffer, not one publish per block.
        assert len(batches) <= deployment.spec.shards
        assert all(isinstance(entries, list) for entries in batches)

    def test_buffer_drains_on_flush(self):
        deployment = build_fleet(tiny_spec(), batch_commit_delivery=True)
        submit_fleet(deployment)
        deployment.engine.run(until=15.0)
        assert deployment.fabric.buffered_commit_events > 0
        flushed = deployment.fabric.flush_commit_events()
        assert flushed > 0
        assert deployment.fabric.buffered_commit_events == 0
        # Flushing an empty buffer is a no-op.
        assert deployment.fabric.flush_commit_events() == 0

    def test_chaincode_event_batches_grouped_by_name(self):
        deployment = build_fleet(tiny_spec(), batch_commit_delivery=True)
        received = []
        deployment.fabric.events.subscribe(
            "chaincode_event_batch:provenance_recorded",
            lambda _topic, payloads: received.extend(payloads),
        )
        submit_fleet(deployment)
        deployment.drain()
        assert received
        assert all(event["name"] == "provenance_recorded" for event in received)
        assert all("tx_id" in event and "block_number" in event for event in received)


def metadata_post(store, key: str, version: int = 0):
    return store.submit(
        StoreRequest(key=key, checksum=f"{version:064x}", location=f"file://{key}")
    )


def add_remote_client(deployment, name: str, anchor_peer: str) -> HyperProvClient:
    """A second client on its own host node, anchored on ``anchor_peer``."""
    identity = deployment.channel.msp.organization("org2").enroll(name, role="client")
    deployment.fabric.add_client(
        name, identity=identity, device=deployment.peers[1].device,
        host_node=f"{name}-host", anchor_peer=anchor_peer,
    )
    return HyperProvClient(network=deployment.fabric, client_name=name)


class TestHandleCompletion:
    def test_drain_leaves_no_pending_residue(self):
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
        # Deadline-refused: the envelope never reaches the await-commit stage.
        deployment.client.configure_pipeline(PipelineConfig(deadline_s=1e-6))
        with pytest.raises(DeadlineExceededError):
            metadata_post(store, "too-late")

        assert fabric.flush_and_drain().stop_reason == "idle"
        codes = sorted(post.handle.validation_code.name for post in racers)
        assert codes == ["MVCC_READ_CONFLICT", "VALID"]
        assert delayed.ok
        assert fabric.in_flight() == 0
        assert len(fabric._pending_index) == 0

    def test_two_clients_in_one_block_complete_in_block_order(self):
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
