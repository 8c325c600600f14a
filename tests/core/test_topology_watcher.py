"""Tests for the deployment builders and the file watcher."""

import pytest

from repro.common.errors import ConfigurationError
from repro.api.protocol import StoreRequest
from repro.consensus.batching import BatchConfig
from repro.consensus.raft import RaftOrderingService
from repro.consensus.solo import SoloOrderingService
from repro.core.topology import (
    DeploymentSpec,
    build_deployment,
    build_desktop_deployment,
)
from repro.core.watcher import FileWatcher
from repro.devices.profiles import RASPBERRY_PI_3B_PLUS, XEON_E5_1603


# -------------------------------------------------------------------- topology
def test_desktop_deployment_matches_paper_setup(desktop_deployment):
    assert len(desktop_deployment.peers) == 4
    profiles = [p.device.profile.name for p in desktop_deployment.peers]
    assert profiles.count("xeon-e5-1603") == 2
    assert "core-i7-4700mq" in profiles
    assert "core-i3-2310m" in profiles
    assert isinstance(desktop_deployment.fabric.shard(0).orderer, SoloOrderingService)
    assert "storage" in desktop_deployment.devices
    assert desktop_deployment.channel.name == "hyperprov-channel"


def test_rpi_deployment_uses_rpi_profiles(rpi_deployment):
    assert len(rpi_deployment.peers) == 4
    assert all(
        p.device.profile.name == "raspberry-pi-3b-plus" for p in rpi_deployment.peers
    )
    # Client co-located with a peer, as in the paper's energy measurements.
    context = rpi_deployment.fabric.client_context("hyperprov-client")
    assert context.host_node == rpi_deployment.peers[0].name


def test_deployments_are_deterministic_given_seed():
    first = build_desktop_deployment(seed=7)
    second = build_desktop_deployment(seed=7)
    post1 = first.client.as_store().submit(StoreRequest(key="k", data=b"x"))
    post2 = second.client.as_store().submit(StoreRequest(key="k", data=b"x"))
    first.drain()
    second.drain()
    assert post1.handle.latency_s == pytest.approx(post2.handle.latency_s)


def test_raft_deployment_builds_and_commits():
    deployment = build_desktop_deployment(ordering="raft", seed=3)
    assert isinstance(deployment.fabric.shard(0).orderer, RaftOrderingService)
    deployment.engine.run(until=1.0)
    post = deployment.client.as_store().submit(StoreRequest(key="raft/1", data=b"x"))
    deployment.drain()
    assert post.done
    assert post.ok


@pytest.mark.parametrize("shards", [1, 2])
def test_raft_ordering_is_a_three_node_cluster_per_shard(shards):
    deployment = build_desktop_deployment(ordering="raft", shards=shards, seed=3)
    for shard in deployment.fabric.shards:
        assert len(shard.orderer.nodes) == 3


def test_custom_batch_config_is_applied():
    config = BatchConfig(max_message_count=1, batch_timeout_s=0.5)
    deployment = build_desktop_deployment(batch_config=config, seed=5)
    assert deployment.channel.batch_config.max_message_count == 1
    assert deployment.fabric.shard(0).orderer.batch_config.max_message_count == 1


def test_build_deployment_rejects_empty_peer_list():
    spec = DeploymentSpec(
        peer_profiles=[], orderer_profile=XEON_E5_1603,
        storage_profile=XEON_E5_1603, client_profile=XEON_E5_1603,
    )
    with pytest.raises(ConfigurationError):
        build_deployment(spec)


def test_build_deployment_rejects_unknown_ordering():
    spec = DeploymentSpec(
        peer_profiles=[RASPBERRY_PI_3B_PLUS], orderer_profile=XEON_E5_1603,
        storage_profile=XEON_E5_1603, client_profile=XEON_E5_1603,
        ordering="pbft",
    )
    with pytest.raises(ConfigurationError):
        build_deployment(spec)


def test_separate_client_host_supported():
    spec = DeploymentSpec(
        peer_profiles=[XEON_E5_1603, XEON_E5_1603],
        orderer_profile=XEON_E5_1603,
        storage_profile=XEON_E5_1603,
        client_profile=XEON_E5_1603,
        client_colocated_with=None,
    )
    deployment = build_deployment(spec)
    context = deployment.fabric.client_context("hyperprov-client")
    assert context.host_node == "client"
    post = deployment.client.as_store().submit(StoreRequest(key="k", data=b"x"))
    deployment.drain()
    assert post.ok


# --------------------------------------------------------------------- watcher
def test_watcher_posts_new_and_modified_files(desktop_deployment):
    watcher = FileWatcher(desktop_deployment.client, namespace="edge-files")
    first = watcher.observe("camera/frame.jpg", b"frame-v1")
    desktop_deployment.drain()
    assert first is not None and first.is_new
    assert first.post.handle.is_valid

    unchanged = watcher.observe("camera/frame.jpg", b"frame-v1")
    assert unchanged is None

    second = watcher.observe("camera/frame.jpg", b"frame-v2")
    desktop_deployment.drain()
    assert second is not None and not second.is_new
    assert watcher.change_count == 2
    assert [change.path for change in watcher.changes] == ["camera/frame.jpg"] * 2


def test_watcher_links_versions_as_dependencies(desktop_deployment):
    watcher = FileWatcher(desktop_deployment.client, namespace="w")
    watcher.observe("data.csv", b"v1")
    desktop_deployment.drain()
    watcher.observe("data.csv", b"v2")
    desktop_deployment.drain()
    store = desktop_deployment.client.as_store()
    record = store.get("w/data.csv")
    assert list(record.dependencies) == ["w/data.csv"]
    assert len(store.history("w/data.csv")) == 2
