"""Tests for the off-chain storage backends and content addressing."""

import pytest

from repro.common.errors import ChecksumMismatchError, NotFoundError
from repro.common.hashing import checksum_of
from repro.devices.model import DeviceModel
from repro.devices.profiles import RASPBERRY_PI_3B_PLUS, XEON_E5_1603
from repro.network.fabric import NetworkFabric
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import DeterministicRandom
from repro.storage.content import ContentAddressedStore
from repro.storage.local import LocalStorageBackend
from repro.storage.sshfs import SSHFSStorageBackend


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


# ----------------------------------------------------------------------- local
def test_local_store_and_retrieve_roundtrip():
    backend = LocalStorageBackend()
    receipt = backend.store("a/b", b"payload")
    assert receipt.checksum == checksum_of(b"payload")
    assert backend.exists("a/b")
    retrieved = backend.retrieve("a/b")
    assert retrieved.checksum == receipt.checksum
    assert backend.get_object("a/b").data == b"payload"


def test_local_missing_path_raises():
    with pytest.raises(NotFoundError):
        LocalStorageBackend().retrieve("ghost")


def test_local_delete_and_list():
    backend = LocalStorageBackend()
    backend.store("x/1", b"1")
    backend.store("x/2", b"2")
    backend.store("y/1", b"3")
    assert backend.list_paths("x/") == ["x/1", "x/2"]
    assert backend.delete("x/1")
    assert not backend.delete("x/1")
    assert backend.list_paths("x/") == ["x/2"]


def test_local_with_device_charges_disk_time():
    device = DeviceModel("host", RASPBERRY_PI_3B_PLUS, rng=DeterministicRandom(4))
    backend = LocalStorageBackend(device=device)
    receipt = backend.store("k", b"x" * 1024 * 1024)
    assert receipt.duration_s > 0
    assert device.busy_time(component="disk") > 0


def test_local_location_uses_file_scheme():
    assert LocalStorageBackend(host="edge-1").location_of("a") == "file://edge-1/a"


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


def test_sshfs_inventory_helpers(sshfs):
    sshfs.store("a/1", b"1")
    sshfs.store("a/2", b"22")
    assert sshfs.total_bytes_stored() == 3
    assert sshfs.list_paths("a/") == ["a/1", "a/2"]
    assert sshfs.verify_integrity() == []
    assert sshfs.delete("a/1")


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
    assert store.exists(checksum_of(data))
    assert store.list_checksums() == [checksum_of(data)]


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
