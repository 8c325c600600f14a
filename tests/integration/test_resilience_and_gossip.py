"""Resilience-oriented integration tests: Raft leader failover, peer
catch-up, and resource accounting across the flow."""

import pytest

from repro.api.protocol import StoreRequest
from repro.bench.resource_usage import run_resource_usage
from repro.common.hashing import checksum_of
from repro.consensus.batching import BatchConfig
from repro.consensus.raft import RaftState
from repro.core.topology import build_desktop_deployment


# ------------------------------------------------------------------- catch-up
def test_peer_catches_up_after_missing_multiple_blocks():
    deployment = build_desktop_deployment(
        batch_config=BatchConfig(max_message_count=1), seed=17
    )
    store = deployment.client.as_store()
    client_host = deployment.fabric.client_context("hyperprov-client").host_node
    lagging = deployment.peers[3].name
    connected = sorted(
        {p.name for p in deployment.peers[:3]} | {"orderer", "storage", client_host}
    )
    deployment.network.partitions.partition([connected, [lagging]])

    for index in range(3):
        store.submit(StoreRequest(key=f"catchup/{index}", data=f"v{index}".encode()))
        deployment.drain()

    heights = deployment.fabric.ledger_heights()
    assert heights[lagging] == 0
    assert max(heights.values()) == 3

    deployment.network.partitions.heal()
    store.submit(StoreRequest(key="catchup/after-heal", data=b"x"))
    deployment.drain()
    heights = deployment.fabric.ledger_heights()
    assert len(set(heights.values())) == 1
    # The lagging peer replayed the missed blocks in order and verifies.
    assert deployment.fabric.peer(lagging).block_store.verify_chain()


# -------------------------------------------------------------- raft failover
def test_raft_leader_failover_elects_new_leader():
    deployment = build_desktop_deployment(ordering="raft", seed=19)
    deployment.engine.run(until=1.0)
    orderer = deployment.fabric.shard(0).orderer
    first_leader = orderer.leader
    assert first_leader is not None

    # Isolate the current leader from the other Raft nodes: its heartbeats
    # stop arriving and a new leader is elected among the remaining nodes.
    others = [node.node_id for node in orderer.nodes if node is not first_leader]
    everyone_else = [n for n in deployment.network.nodes if n != first_leader.node_id]
    deployment.network.partitions.partition([everyone_else, [first_leader.node_id]])
    deployment.engine.run(until=3.0)

    new_leaders = [
        node for node in orderer.nodes
        if node.is_leader and node.node_id in others
    ]
    assert len(new_leaders) == 1
    assert new_leaders[0].current_term > first_leader.current_term

    # Ordering keeps working through the new leader once the old one is cut off.
    deployment.network.partitions.heal()
    post = deployment.client.as_store().submit(StoreRequest(key="raft/failover", data=b"x"))
    deployment.drain()
    assert post.ok


def test_raft_minority_partition_cannot_commit():
    deployment = build_desktop_deployment(ordering="raft", seed=23)
    deployment.engine.run(until=1.0)
    orderer = deployment.fabric.shard(0).orderer
    leader = orderer.leader
    assert leader is not None
    # Cut the leader off together with nothing else: it keeps believing it is
    # leader for a while but cannot commit new entries without a majority.
    everyone_else = [n for n in deployment.network.nodes if n != leader.node_id]
    deployment.network.partitions.partition([everyone_else, [leader.node_id]])
    log_before = len(leader.log)
    leader.propose({"tx_ids": ["orphan"]})
    deployment.engine.run(until=2.0)
    assert len(leader.log) == log_before + 1
    assert leader.commit_index < len(leader.log) - 1
    # The rest of the cluster moved on to a higher term.
    assert any(
        node.current_term > leader.current_term
        for node in orderer.nodes
        if node is not leader and node.state is not RaftState.CANDIDATE
    ) or any(node.is_leader for node in orderer.nodes if node is not leader)


# ------------------------------------------------------------------ accounting
def test_network_accounts_bytes_for_protocol_transfers(desktop_deployment):
    client_host = desktop_deployment.fabric.client_context("hyperprov-client").host_node
    desktop_deployment.client.as_store().submit(
        StoreRequest(key="acct/1", data=b"x" * 100_000)
    )
    desktop_deployment.drain()
    assert desktop_deployment.network.bytes_sent_by(client_host) > 100_000
    assert desktop_deployment.network.bytes_sent_by("orderer") > 0


def test_resource_usage_report_structure():
    reports = run_resource_usage(payload_bytes=32 * 1024, requests=10)
    assert set(reports) == {"desktop", "rpi"}
    for report in reports.values():
        roles = {usage.role for usage in report.nodes}
        assert {"peer", "peer+client", "orderer", "storage"} <= roles
        assert report.throughput_tps > 0
        rendered = report.to_table().render()
        assert "cpu util" in rendered
        with pytest.raises(KeyError):
            report.node_usage("ghost")


def test_checksum_mismatch_error_fields():
    from repro.common.errors import ChecksumMismatchError

    error = ChecksumMismatchError(checksum_of(b"a"), checksum_of(b"b"))
    assert error.expected != error.actual
    assert "checksum mismatch" in str(error)
