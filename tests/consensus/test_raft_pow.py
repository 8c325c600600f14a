"""Tests for the Raft ordering service and the Proof-of-Work engine."""

import pytest

from repro.common.errors import ConfigurationError, OrderingError
from repro.consensus.batching import BatchConfig
from repro.consensus.pow import ProofOfWorkEngine
from repro.consensus.raft import RaftNode, RaftOrderingService, RaftState
from repro.ledger.transaction import ReadWriteSet, Transaction
from repro.network.fabric import NetworkFabric
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import DeterministicRandom


def make_tx(tx_id: str) -> Transaction:
    rw_set = ReadWriteSet()
    rw_set.add_write(tx_id, "v")
    return Transaction(
        tx_id=tx_id, channel="ch", chaincode="cc", function="set",
        args=[tx_id], rw_set=rw_set,
    )


def build_cluster(size: int = 3):
    engine = SimulationEngine()
    network = NetworkFabric(engine=engine, rng=DeterministicRandom(5))
    node_ids = [f"raft-{i}" for i in range(size)]
    nodes = [
        RaftNode(node_id, node_ids, engine, network, rng=DeterministicRandom(10 + i))
        for i, node_id in enumerate(node_ids)
    ]
    for node in nodes:
        node.start()
    return engine, network, nodes


# ------------------------------------------------------------------------ raft
def test_raft_elects_exactly_one_leader():
    engine, _network, nodes = build_cluster(3)
    engine.run(until=2.0)
    leaders = [n for n in nodes if n.is_leader]
    assert len(leaders) == 1
    followers = [n for n in nodes if n.state is RaftState.FOLLOWER]
    assert len(followers) == 2
    assert all(n.leader_id == leaders[0].node_id for n in followers)


def test_raft_replicates_and_commits_entries():
    engine, _network, nodes = build_cluster(3)
    engine.run(until=2.0)
    leader = next(n for n in nodes if n.is_leader)
    committed = []
    leader.on_commit(lambda entry: committed.append(entry.payload))
    leader.propose({"value": 1})
    leader.propose({"value": 2})
    engine.run(until=4.0)
    assert committed == [{"value": 1}, {"value": 2}]
    # Followers eventually hold the same log.
    for node in nodes:
        assert len(node.log) == 2
        assert node.commit_index >= 0


def test_raft_single_node_cluster_commits_immediately():
    engine, _network, nodes = build_cluster(1)
    engine.run(until=1.0)
    node = nodes[0]
    assert node.is_leader
    entry = node.propose({"x": 1})
    assert entry.committed
    assert node.commit_index == 0


def test_raft_propose_on_follower_raises():
    engine, _network, nodes = build_cluster(3)
    engine.run(until=2.0)
    follower = next(n for n in nodes if not n.is_leader)
    with pytest.raises(OrderingError):
        follower.propose({"x": 1})


def test_raft_ordering_service_orders_transactions():
    engine = SimulationEngine()
    network = NetworkFabric(engine=engine, rng=DeterministicRandom(5))
    orderer = RaftOrderingService(
        "orderer", engine, network,
        batch_config=BatchConfig(max_message_count=2),
        rng=DeterministicRandom(99),
    )
    blocks = []
    orderer.register_consumer(blocks.append)
    engine.run(until=2.0)  # elect a leader first
    orderer.submit(make_tx("t1"))
    orderer.submit(make_tx("t2"))
    engine.run(until=5.0)
    assert len(blocks) == 1
    assert blocks[0].tx_count == 2


def test_raft_ordering_service_queues_batches_until_leader_exists():
    engine = SimulationEngine()
    network = NetworkFabric(engine=engine, rng=DeterministicRandom(5))
    orderer = RaftOrderingService(
        "orderer", engine, network,
        batch_config=BatchConfig(max_message_count=1),
        rng=DeterministicRandom(7),
    )
    blocks = []
    orderer.register_consumer(blocks.append)
    orderer.submit(make_tx("t1"))  # no leader yet at t=0
    engine.run(until=5.0)
    assert len(blocks) == 1


# ------------------------------------------------------------------------- pow
def test_pow_expected_time_scales_with_difficulty():
    slow = ProofOfWorkEngine(difficulty_bits=20, rng=DeterministicRandom(999))
    fast = ProofOfWorkEngine(difficulty_bits=10, rng=DeterministicRandom(999))
    assert slow.expected_mining_time(1e6) > fast.expected_mining_time(1e6)
    assert slow.expected_attempts == 2 ** 20


def test_pow_sample_mining_time_is_positive_and_full_utilization():
    engine = ProofOfWorkEngine(difficulty_bits=16, rng=DeterministicRandom(3))
    duration, utilization = engine.sample_mining_time(1e6)
    assert duration >= 0.0
    assert utilization == 1.0


def test_pow_validates_parameters():
    with pytest.raises(ConfigurationError):
        ProofOfWorkEngine(difficulty_bits=0, rng=DeterministicRandom(999))
    engine = ProofOfWorkEngine(difficulty_bits=8, rng=DeterministicRandom(999))
    with pytest.raises(ConfigurationError):
        engine.expected_mining_time(0)

