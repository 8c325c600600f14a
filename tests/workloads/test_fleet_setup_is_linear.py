"""Fleet set-up counts its work: one membership look-up per node it joins.

Timing a build says little on a shared machine; counting the calls it
makes does not drift.  ``build_fleet`` joins every peer and every device
to the network through ``NetworkFabric.has_node`` (a dict look-up) and
never reads ``NetworkFabric.nodes``, which sorts every node name on each
read: one read per registration made the set-up quadratic in the fleet.
"""

import pytest

from repro.network.fabric import NetworkFabric
from repro.workloads.fleet import PEERS_PER_SITE, FleetSpec, build_fleet


@pytest.fixture
def counted(monkeypatch):
    """Count ``has_node`` and ``register_node`` calls; fail on any read of ``nodes``."""
    calls = {}

    def counting(method):
        def count(self, *args, **kwargs):
            calls[method.__name__] += 1
            return method(self, *args, **kwargs)
        return count

    def forbidden(self):
        raise AssertionError("NetworkFabric.nodes read during a fleet build")

    for method in (NetworkFabric.has_node, NetworkFabric.register_node):
        monkeypatch.setattr(NetworkFabric, method.__name__, counting(method))
    monkeypatch.setattr(NetworkFabric, "nodes", property(forbidden))
    return calls


def lookups(calls, devices, shards, sites=None):
    """``(has_node calls, nodes registered)`` of one build."""
    calls.update(has_node=0, register_node=0)
    build_fleet(FleetSpec(devices=devices, shards=shards), sites=sites)
    return calls["has_node"], calls["register_node"]


@pytest.mark.parametrize("shards", [1, 4])
def test_a_build_looks_up_each_peer_and_device_once(counted, shards):
    for devices in (16, 32, 64):
        count, registered = lookups(counted, devices, shards)
        # Every peer and device joins through one look-up; the orderers
        # register directly.
        assert count == devices + shards * PEERS_PER_SITE
        assert count == registered - shards


def test_look_ups_grow_by_one_per_device_added(counted):
    small, _ = lookups(counted, 40, 4)
    large, _ = lookups(counted, 80, 4)
    assert large - small == 40


def test_a_one_site_build_looks_up_only_its_own_nodes(counted):
    count, registered = lookups(counted, 64, 4, sites=[2])
    assert count == 64 // 4 + PEERS_PER_SITE
    assert count == registered - 1
