"""Integration tests across the full stack.

These exercise the same paths the paper's deployment exercises: multi-item
IoT pipelines, ledger agreement across peers, tamper evidence, MVCC under
contention, partition behaviour and recovery of lineage from chain state.
"""

import pytest

from repro.api import HyperProvService
from repro.api.protocol import StoreRequest
from repro.common.errors import PartitionError
from repro.common.hashing import checksum_of
from repro.consensus.batching import BatchConfig
from repro.core.topology import build_desktop_deployment, build_rpi_deployment
from repro.ledger.transaction import TxValidationCode
from repro.workloads.scenarios import IoTPipelineWorkload, PipelineStage


def test_multi_round_pipeline_lineage_and_agreement(desktop_deployment):
    """Three ingestion rounds and two derivation stages: every peer ends with
    the same ledger, and lineage queries see the whole derivation tree."""
    workload = IoTPipelineWorkload(
        HyperProvService(desktop_deployment).session(),
        sensor_count=2, camera_count=1,
        image_size_bytes=4 * 1024,
    )
    for _ in range(3):
        workload.ingest_round()
        desktop_deployment.drain()
    summary = workload.derive(PipelineStage(name="summary"))
    desktop_deployment.drain()
    report = workload.derive(
        PipelineStage(name="report", reduction_factor=0.1), source_posts=[summary]
    )
    desktop_deployment.drain()

    heights = set(desktop_deployment.fabric.ledger_heights().values())
    assert len(heights) == 1

    lineage = desktop_deployment.client.get_lineage(report.record.key)
    assert lineage.ancestor_count == 10  # 9 raw items + the summary

    states = [peer.state_snapshot() for peer in desktop_deployment.peers]
    assert all(state == states[0] for state in states[1:])


def test_ledger_is_tamper_evident(desktop_deployment):
    """Rewriting a committed transaction on one peer breaks its chain
    verification while honest peers still verify — the core guarantee."""
    client = desktop_deployment.client
    client.as_store().submit(StoreRequest(key="evidence/1", data=b"original data"))
    desktop_deployment.drain()

    victim = desktop_deployment.peers[0]
    block = victim.block_store.block(0)
    position = next(
        i for i, tx in enumerate(block.transactions) if tx.function == "set"
    )
    # Peers share sealed envelopes (zero-copy commit); a malicious peer
    # rewrites via the copy-on-write tamper hook, which only swaps the
    # clone into *its* ledger copy.
    target_tx = victim.tamper(0, position)
    target_tx.args[1] = checksum_of(b"forged data")

    assert not victim.block_store.verify_chain()
    for honest in desktop_deployment.peers[1:]:
        assert honest.block_store.verify_chain()


def test_history_survives_world_state_deletion(desktop_deployment):
    store = desktop_deployment.client.as_store()
    store.submit(StoreRequest(key="ephemeral/1", data=b"short lived"))
    desktop_deployment.drain()
    handle = desktop_deployment.fabric.submit_transaction(
        "hyperprov-client", "hyperprov", "delete", ["ephemeral/1"]
    )
    desktop_deployment.drain()
    assert handle.is_valid
    history = store.history("ephemeral/1")
    assert len(history) == 2
    assert history.entries[-1].deleted is True
    assert history.entries[-1].block == handle.commit_block > history.entries[0].block


def test_partitioned_peer_misses_blocks_and_no_endorsement_majority_fails():
    deployment = build_desktop_deployment(
        batch_config=BatchConfig(max_message_count=1), seed=9
    )
    store = deployment.client.as_store()
    store.submit(StoreRequest(key="pre-partition", data=b"x"))
    deployment.drain()

    # Cut off two of the four peers: the majority (3-of-4) endorsement policy
    # can no longer be satisfied, so new transactions are invalidated.
    client_host = deployment.fabric.client_context("hyperprov-client").host_node
    reachable = {deployment.peers[2].name, deployment.peers[3].name,
                 "orderer", "storage", client_host}
    isolated = [deployment.peers[0].name, deployment.peers[1].name]
    deployment.network.partitions.partition([sorted(reachable), isolated])

    post = store.submit(StoreRequest(key="during-partition", data=b"y"))
    deployment.drain()
    assert post.done
    assert post.handle.validation_code is TxValidationCode.ENDORSEMENT_POLICY_FAILURE

    # Heal the partition: new transactions commit again on the reachable peers.
    deployment.network.partitions.heal()
    recovered = store.submit(StoreRequest(key="after-heal", data=b"z"))
    deployment.drain()
    assert recovered.ok


def test_direct_send_between_partitioned_nodes_raises(desktop_deployment):
    network = desktop_deployment.network
    a, b = desktop_deployment.peers[0].name, desktop_deployment.peers[1].name
    network.partitions.partition([[a], [b]])
    with pytest.raises(PartitionError):
        network.send(a, b, "ping", None, 10)
    network.partitions.heal()


def test_mvcc_contention_many_writers_single_key(desktop_deployment):
    """Ten updates of one key submitted concurrently: exactly one per block
    window wins; the rest are MVCC-invalidated, and history only contains the
    winners (Fabric semantics)."""
    store = desktop_deployment.client.as_store()
    posts = [
        store.submit(
            StoreRequest(key="hot-key", checksum=checksum_of(f"v{i}".encode()), location="loc")
        )
        for i in range(10)
    ]
    desktop_deployment.drain()
    valid = [p for p in posts if p.ok]
    invalid = [p for p in posts if not p.ok]
    assert len(valid) >= 1
    assert len(invalid) >= 1
    assert all(
        p.handle.validation_code is TxValidationCode.MVCC_READ_CONFLICT for p in invalid
    )
    history = store.history("hot-key")
    assert len(history) == len(valid)


def test_provenance_graph_rebuilt_from_chain_matches_submissions(rpi_deployment):
    client = rpi_deployment.client
    store = client.as_store()
    store.submit(StoreRequest(key="iot/raw-1", data=b"r1"))
    store.submit(StoreRequest(key="iot/raw-2", data=b"r2"))
    rpi_deployment.drain()
    store.submit(
        StoreRequest(key="iot/combined", data=b"c", dependencies=("iot/raw-1", "iot/raw-2"))
    )
    rpi_deployment.drain()

    combined = client.get_lineage("iot/combined")
    assert combined.root == f"artifact:iot/combined@{checksum_of(b'c')[:16]}"
    assert combined.ancestors == [
        f"artifact:iot/raw-1@{checksum_of(b'r1')[:16]}",
        f"artifact:iot/raw-2@{checksum_of(b'r2')[:16]}",
    ]
    assert client.get_lineage("iot/raw-1").descendants == [combined.root]


def test_rpi_and_desktop_agree_on_semantics_but_not_speed():
    desktop = build_desktop_deployment(seed=21)
    rpi = build_rpi_deployment(seed=21)
    payload = b"cross-platform item"
    desktop_post = desktop.client.as_store().submit(StoreRequest(key="x", data=payload))
    rpi_post = rpi.client.as_store().submit(StoreRequest(key="x", data=payload))
    desktop.drain()
    rpi.drain()
    assert desktop_post.record.checksum == rpi_post.record.checksum
    assert (
        desktop.client.as_store().get("x").checksum
        == rpi.client.as_store().get("x").checksum
    )
    assert rpi_post.handle.latency_s > desktop_post.handle.latency_s
