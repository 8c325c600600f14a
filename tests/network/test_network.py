"""Tests for links, the network fabric and partitions."""

import pytest

from repro.common.errors import ConfigurationError, NotFoundError, PartitionError
from repro.network.fabric import NetworkFabric
from repro.network.link import GIGABIT_LAN, RPI_LAN, Link, LinkProfile
from repro.network.partitions import PartitionManager
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import DeterministicRandom


# ----------------------------------------------------------------------- links
def test_transfer_time_grows_with_payload():
    link = Link("a", "b", GIGABIT_LAN, rng=DeterministicRandom(1))
    small = link.transfer_time(1024)
    large = link.transfer_time(10 * 1024 * 1024)
    assert large > small


def test_transfer_time_includes_bandwidth_component():
    profile = LinkProfile(latency_s=0.0, bandwidth_bps=8e6, jitter_fraction=0.0)
    link = Link("a", "b", profile, rng=DeterministicRandom(1))
    # 1 MB over 8 Mbit/s should take about one second.
    assert link.transfer_time(1_000_000) == pytest.approx(1.0, rel=0.01)


def test_rpi_link_is_slower_than_gigabit():
    assert RPI_LAN.bandwidth_bps < GIGABIT_LAN.bandwidth_bps


def test_link_rejects_negative_payload():
    link = Link("a", "b", GIGABIT_LAN)
    with pytest.raises(ConfigurationError):
        link.transfer_time(-1)


def test_link_profile_validation():
    with pytest.raises(ConfigurationError):
        LinkProfile(latency_s=-1).validate()
    with pytest.raises(ConfigurationError):
        LinkProfile(bandwidth_bps=0).validate()
    with pytest.raises(ConfigurationError):
        LinkProfile(loss_rate=1.5).validate()


def test_link_tracks_traffic_counters():
    link = Link("a", "b", GIGABIT_LAN, rng=DeterministicRandom(1))
    link.transfer_time(100)
    link.transfer_time(200)
    assert link.bytes_transferred == 300
    assert link.messages_transferred == 2


# ------------------------------------------------------------------ partitions
def test_no_partition_means_full_connectivity():
    manager = PartitionManager()
    assert manager.can_communicate("a", "b")
    assert not manager.is_partitioned


def test_partition_blocks_cross_group_traffic():
    manager = PartitionManager()
    manager.partition([["a", "b"], ["c"]])
    assert manager.can_communicate("a", "b")
    assert not manager.can_communicate("a", "c")


def test_unassigned_nodes_form_implicit_group():
    manager = PartitionManager()
    manager.partition([["a"]])
    assert manager.can_communicate("x", "y")
    assert not manager.can_communicate("a", "x")


def test_heal_restores_connectivity():
    manager = PartitionManager()
    manager.partition([["a"], ["b"]])
    manager.heal()
    assert manager.can_communicate("a", "b")


def test_node_cannot_be_in_two_groups():
    manager = PartitionManager()
    with pytest.raises(ConfigurationError):
        manager.partition([["a"], ["a", "b"]])


def test_each_group_reaches_only_itself():
    manager = PartitionManager()
    manager.partition([["a", "b"], ["c", "d"]])
    reach = {node: [other for other in "abcd" if manager.can_communicate(node, other)]
             for node in "abcd"}
    assert reach == {"a": ["a", "b"], "b": ["a", "b"], "c": ["c", "d"], "d": ["c", "d"]}


# --------------------------------------------------------------------- fabric
@pytest.fixture
def fabric():
    network = NetworkFabric(engine=SimulationEngine(), rng=DeterministicRandom(3))
    for node in ("alpha", "beta", "gamma"):
        network.register_node(node)
    return network


def test_send_delivers_to_handler(fabric):
    received = []
    fabric.register_node("beta", handler=lambda message: received.append(message))
    receipt = fabric.send("alpha", "beta", "ping", {"x": 1}, size_bytes=100)
    assert receipt.delivered
    assert received[0].payload == {"x": 1}
    assert receipt.latency_s > 0


def test_loopback_is_free(fabric):
    receipt = fabric.send("alpha", "alpha", "ping", None, size_bytes=10_000_000)
    assert receipt.latency_s == 0.0


def test_send_to_unknown_node_raises(fabric):
    with pytest.raises(NotFoundError):
        fabric.send("alpha", "ghost", "ping", None, 10)


def test_partitioned_nodes_cannot_communicate(fabric):
    fabric.partitions.partition([["alpha"], ["beta", "gamma"]])
    with pytest.raises(PartitionError):
        fabric.send("alpha", "beta", "ping", None, 10)


def test_send_later_delivers_via_engine(fabric):
    received = []
    fabric.register_node("beta", handler=lambda message: received.append(fabric.engine.now))
    fabric.send_later("alpha", "beta", "ping", None, size_bytes=1024)
    assert received == []
    fabric.engine.run_until_idle()
    assert len(received) == 1
    assert received[0] > 0.0


def test_bytes_sent_accounting(fabric):
    fabric.send("alpha", "beta", "ping", None, size_bytes=500)
    fabric.send("alpha", "gamma", "ping", None, size_bytes=700)
    assert fabric.bytes_sent_by("alpha") == 1200
    assert fabric.bytes_sent_by("beta") == 0


def test_link_profile_uses_slower_endpoint():
    network = NetworkFabric(engine=SimulationEngine(), rng=DeterministicRandom(3))
    network.register_node("fast", profile=GIGABIT_LAN)
    network.register_node("slow", profile=RPI_LAN)
    fast_time = network.estimate_transfer_time("fast", "slow", 1_000_000)
    network2 = NetworkFabric(engine=SimulationEngine(), rng=DeterministicRandom(3))
    network2.register_node("fast", profile=GIGABIT_LAN)
    network2.register_node("fast2", profile=GIGABIT_LAN)
    both_fast = network2.estimate_transfer_time("fast", "fast2", 1_000_000)
    assert fast_time > both_fast
