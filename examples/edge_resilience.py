#!/usr/bin/env python
"""Resilience at the edge: network partitions and Raft ordering.

Edge deployments lose connectivity.  This example shows how the HyperProv
deployment behaves through a partition and how the ledger converges again
afterwards, plus the Raft-ordered variant that survives orderer crashes
(the ablation the paper's Solo-orderer testbed could not run).

Run with::

    python examples/edge_resilience.py
"""

from __future__ import annotations

from repro.api import HyperProvService
from repro.consensus.batching import BatchConfig
from repro.core import build_rpi_deployment
from repro.core.topology import build_desktop_deployment


def partition_scenario() -> None:
    print("=== Partition on the RPi edge deployment ===")
    deployment = build_rpi_deployment(batch_config=BatchConfig(max_message_count=1))
    session = HyperProvService(deployment).session()

    session.store("telemetry/0001", b"pre-partition reading")
    print(f"  before partition: heights {deployment.fabric.ledger_heights()}")

    # The site loses two of its four devices (e.g. a switch failure).
    client_host = deployment.fabric.client_context("hyperprov-client").host_node
    connected = sorted({deployment.peers[0].name, deployment.peers[1].name,
                        "orderer", "storage", client_host})
    disconnected = [deployment.peers[2].name, deployment.peers[3].name]
    deployment.network.partitions.partition([connected, disconnected])
    print(f"  partition installed, unreachable peers: {disconnected}")

    # With only 2 of 4 organizations reachable the majority endorsement
    # policy cannot be satisfied — the write is rejected, not silently lost.
    attempt = session.store("telemetry/0002", b"during partition")
    print(f"  write during partition valid: {attempt.ok} "
          f"({attempt.handle.validation_code.value})")

    # Connectivity returns: new writes commit, and the peers that missed
    # blocks catch up from the ordering service.
    deployment.network.partitions.heal()
    recovered = session.store("telemetry/0003", b"after heal")
    heights = deployment.fabric.ledger_heights()
    print(f"  write after heal valid: {recovered.ok}")
    print(f"  heights after heal    : {heights}")
    assert len(set(heights.values())) == 1


def raft_scenario() -> None:
    print("\n=== Raft-ordered desktop deployment ===")
    deployment = build_desktop_deployment(ordering="raft")
    deployment.engine.run(until=1.0)  # let the cluster elect a leader
    orderer = deployment.fabric.shard(0).orderer
    leader = orderer.leader
    print(f"  raft cluster of {len(orderer.nodes)} elected leader: {leader.node_id}")

    session = HyperProvService(deployment).session()
    post = session.store("raft/item-1", b"ordered via raft")
    print(f"  transaction committed in block {post.commit_block} "
          f"(latency {post.latency_s * 1000:.0f} ms virtual)")
    replicated = sum(1 for node in orderer.nodes if len(node.log) > 0)
    print(f"  log replicated on {replicated}/{len(orderer.nodes)} orderer nodes")


def main() -> None:
    partition_scenario()
    raft_scenario()


if __name__ == "__main__":
    main()
