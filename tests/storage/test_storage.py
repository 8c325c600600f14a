"""Tests for the SSHFS off-chain store and content addressing."""

import pytest

from repro.common.errors import ChecksumMismatchError, NotFoundError
from repro.common.hashing import checksum_of
from repro.devices.model import DeviceModel
from repro.devices.profiles import RASPBERRY_PI_3B_PLUS, XEON_E5_1603
from repro.network.fabric import NetworkFabric
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import DeterministicRandom
from repro.storage.content import ContentAddressedStore
from repro.storage.sshfs import PROTOCOL_OVERHEAD_S, SSHFSStorageBackend


@pytest.fixture
def network():
    fabric = NetworkFabric(engine=SimulationEngine(), rng=DeterministicRandom(1))
    fabric.register_node("client-host", profile=RASPBERRY_PI_3B_PLUS.nic)
    return fabric


@pytest.fixture
def sshfs(network):
    storage_device = DeviceModel("storage", XEON_E5_1603, rng=DeterministicRandom(2))
    return SSHFSStorageBackend(network=network, storage_device=storage_device)


@pytest.fixture
def client_device():
    return DeviceModel("client", RASPBERRY_PI_3B_PLUS, rng=DeterministicRandom(3))


# ----------------------------------------------------------------------- sshfs
def test_sshfs_store_and_retrieve_with_costs(sshfs, client_device):
    data = b"y" * 256 * 1024
    receipt = sshfs.store(
        "items/1", data, at_time=0.0, client_device=client_device, client_node="client-host"
    )
    assert receipt.checksum == checksum_of(data)
    assert receipt.duration_s > 0
    assert receipt.location.startswith("ssh://storage/")

    fetched = sshfs.retrieve(
        "items/1", at_time=receipt.completed_at,
        client_device=client_device, client_node="client-host",
        expected_checksum=receipt.checksum,
    )
    assert fetched.checksum == receipt.checksum
    assert fetched.duration_s > 0


def test_sshfs_charges_hashing_to_the_client_device_it_is_given(sshfs, client_device):
    data = b"z" * 64 * 1024
    bare = sshfs.store("items/bare", data, at_time=0.0)
    assert client_device.busy_time() == 0.0
    assert bare.duration_s > PROTOCOL_OVERHEAD_S  # the storage node's disk write
    sshfs.store("items/hashed", data, at_time=10.0, client_device=client_device)
    assert client_device.busy_time(component="cpu") > PROTOCOL_OVERHEAD_S


def test_sshfs_retrieve_charges_the_transfer_to_the_client_node(sshfs):
    sshfs.store("items/far", b"f" * 512 * 1024, at_time=0.0)
    local = sshfs.retrieve("items/far", at_time=100.0)
    remote = sshfs.retrieve("items/far", at_time=200.0, client_node="client-host")
    assert remote.duration_s > local.duration_s


def test_sshfs_transfer_cost_grows_with_size(sshfs, client_device):
    small = sshfs.store("s", b"a" * 1024, client_device=client_device,
                        client_node="client-host")
    large = sshfs.store("l", b"a" * 4 * 1024 * 1024, client_device=client_device,
                        client_node="client-host")
    assert large.duration_s > small.duration_s


def test_sshfs_checksum_mismatch_detected(sshfs, client_device):
    sshfs.store("items/1", b"original", client_device=client_device,
                client_node="client-host")
    with pytest.raises(ChecksumMismatchError):
        sshfs.retrieve(
            "items/1", client_device=client_device, client_node="client-host",
            expected_checksum=checksum_of(b"something else"),
        )


def test_sshfs_missing_object_raises(sshfs):
    with pytest.raises(NotFoundError):
        sshfs.retrieve("ghost")


def test_sshfs_keeps_a_storage_node_already_on_the_network(network):
    device = DeviceModel("storage", XEON_E5_1603)
    received = []
    network.register_node("nas", handler=received.append, profile=RASPBERRY_PI_3B_PLUS.nic)
    SSHFSStorageBackend(network=network, storage_device=device, storage_node="nas")
    network.send("client-host", "nas", "ping", None, 64)
    assert len(received) == 1  # the node kept its own handler


def test_sshfs_registers_storage_node_on_network(network):
    device = DeviceModel("storage", XEON_E5_1603)
    SSHFSStorageBackend(network=network, storage_device=device, storage_node="nas")
    assert "nas" in network.nodes


# --------------------------------------------------------------------- content
def test_content_store_is_idempotent(sshfs):
    store = ContentAddressedStore(sshfs)
    data = b"same payload"
    first = store.put(data)
    second = store.put(data)
    assert first.path == second.path
    assert second.duration_s == 0.0
    assert store.get_object(checksum_of(data)).data == data


def test_content_store_get_roundtrip(sshfs, client_device):
    store = ContentAddressedStore(sshfs)
    data = b"content addressed"
    receipt = store.put(data, client_device=client_device, client_node="client-host")
    fetched = store.get(receipt.checksum, client_device=client_device,
                        client_node="client-host")
    assert fetched.checksum == receipt.checksum
    assert store.get_object(receipt.checksum).data == data


def test_content_store_path_layout(sshfs):
    store = ContentAddressedStore(sshfs, prefix="objects")
    checksum = checksum_of(b"z")
    assert store.path_for(checksum) == f"objects/{checksum[:2]}/{checksum}"


def test_content_address_is_a_path_on_the_storage_node(sshfs):
    store = ContentAddressedStore(sshfs)
    checksum = checksum_of(b"addressed")
    receipt = store.put(b"addressed")
    assert receipt.location == f"ssh://storage/objects/{checksum[:2]}/{checksum}"
    assert store.get_object(checksum).data == b"addressed"
    assert store.get_object(checksum_of(b"never stored")) is None
