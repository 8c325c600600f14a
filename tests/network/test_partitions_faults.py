"""Edge cases for partitions and scheduled link degradations."""

import pytest

from repro.common.errors import ConfigurationError, NotFoundError, PartitionError
from repro.network.fabric import NetworkFabric
from repro.network.link import LinkProfile
from repro.network.partitions import PartitionManager
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import DeterministicRandom

FLAT = LinkProfile(latency_s=0.010, bandwidth_bps=1e9, jitter_fraction=0.0)


def make_fabric(*nodes):
    fabric = NetworkFabric(engine=SimulationEngine(), rng=DeterministicRandom(7))
    for node in nodes:
        fabric.register_node(node, profile=FLAT)
    return fabric


# ------------------------------------------------------------- partitions
class TestPartitionManagerEdges:
    def test_unknown_node_raises_not_silently_noops(self):
        fabric = make_fabric("a", "b")
        with pytest.raises(NotFoundError, match="unknown node 'typo'"):
            fabric.partitions.partition([["typo"]])
        # The failed call must not leave a half-installed partition.
        assert not fabric.partitions.is_partitioned
        assert fabric.partitions.can_communicate("a", "b")

    def test_duplicate_node_across_groups_raises(self):
        manager = PartitionManager()
        with pytest.raises(ConfigurationError, match="more than one group"):
            manager.partition([["a"], ["a", "b"]])

    def test_unlisted_nodes_form_an_implicit_group(self):
        manager = PartitionManager()
        manager.partition([["a"]])
        assert not manager.can_communicate("a", "b")
        assert manager.can_communicate("b", "c")

    def test_heal_is_idempotent_and_restores_everything(self):
        manager = PartitionManager()
        manager.partition([["a"], ["b"]])
        manager.heal()
        manager.heal()
        assert not manager.is_partitioned
        assert manager.can_communicate("a", "b")

    def test_repartition_replaces_the_previous_cut(self):
        manager = PartitionManager()
        manager.partition([["a"], ["b"]])
        manager.partition([["a", "b"]])
        assert manager.can_communicate("a", "b")
        assert not manager.can_communicate("a", "c")

    def test_partitioned_route_raises_partition_error(self):
        fabric = make_fabric("a", "b")
        fabric.partitions.partition([["a"]])
        with pytest.raises(PartitionError):
            fabric.estimate_transfer_time("a", "b", 1024)
        fabric.partitions.heal()
        assert fabric.estimate_transfer_time("a", "b", 1024) > 0


# ------------------------------------------------------------ link faults
class TestLinkFaultWindows:
    def test_extra_latency_applies_only_inside_the_window(self):
        fabric = make_fabric("a", "b")
        clean = fabric.estimate_transfer_time("a", "b", 1024)
        fabric.inject_link_fault(
            "a", "b", start_s=10.0, end_s=20.0, extra_latency_s=0.5
        )
        before = fabric.estimate_transfer_time("a", "b", 1024)
        fabric.engine.run(until=15.0)
        during = fabric.estimate_transfer_time("a", "b", 1024)
        fabric.engine.run(until=25.0)
        after = fabric.estimate_transfer_time("a", "b", 1024)
        assert before == pytest.approx(clean)
        assert during == pytest.approx(clean + 0.5)
        assert after == pytest.approx(clean)

    def test_zero_duration_window_never_fires(self):
        fabric = make_fabric("a", "b")
        clean = fabric.estimate_transfer_time("a", "b", 1024)
        fabric.inject_link_fault(
            "a", "b", start_s=10.0, end_s=10.0, extra_latency_s=9.9
        )
        fabric.engine.run(until=10.0)
        assert fabric.estimate_transfer_time("a", "b", 1024) == pytest.approx(clean)

    def test_overlapping_windows_stack_their_latency(self):
        fabric = make_fabric("a", "b")
        clean = fabric.estimate_transfer_time("a", "b", 1024)
        fabric.inject_link_fault("a", "b", start_s=0.0, end_s=10.0, extra_latency_s=0.2)
        fabric.inject_link_fault("a", "b", start_s=5.0, end_s=15.0, extra_latency_s=0.3)
        fabric.engine.run(until=7.0)
        both = fabric.estimate_transfer_time("a", "b", 1024)
        fabric.engine.run(until=12.0)
        second_only = fabric.estimate_transfer_time("a", "b", 1024)
        assert both == pytest.approx(clean + 0.5)
        assert second_only == pytest.approx(clean + 0.3)

    def test_unknown_endpoint_raises(self):
        fabric = make_fabric("a", "b")
        with pytest.raises(NotFoundError):
            fabric.inject_link_fault("a", "typo", start_s=0.0, end_s=1.0)

    def test_inverted_window_raises(self):
        fabric = make_fabric("a", "b")
        with pytest.raises(ConfigurationError, match="inverted"):
            fabric.inject_link_fault("a", "b", start_s=5.0, end_s=1.0)

    def test_drop_retransmission_is_deterministic(self):
        def measure():
            fabric = make_fabric("a", "b")
            fabric.inject_link_fault(
                "a", "b", start_s=0.0, end_s=100.0, drop_rate=0.5
            )
            return [fabric.estimate_transfer_time("a", "b", 4096) for _ in range(20)]

        first, second = measure(), measure()
        assert first == second
        # At drop_rate 0.5 some of the 20 transfers must have paid the
        # retransmission (duration strictly above the clean link's).
        clean = make_fabric("a", "b").estimate_transfer_time("a", "b", 4096)
        assert any(duration > clean * 1.5 for duration in first)
