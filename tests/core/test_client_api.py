"""Tests for the HyperProv client library (the paper's operator set).

Writes and key-scoped reads go through the unified
:class:`repro.api.ProvenanceStore` surface (``client.as_store()``); the
remaining operator-specific extensions (``get_data``, ``get_dependencies``,
``get_lineage``, ``get_by_range``) stay on the client.
"""

import pytest

from repro.api.protocol import RecordView, StoreRequest
from repro.common.errors import ChaincodeError, NotFoundError, ValidationError
from repro.common.hashing import checksum_of
from repro.consensus.solo import SoloOrderingService
from repro.core.client import HyperProvClient
from repro.devices.model import DeviceModel
from repro.devices.profiles import XEON_E5_1603
from repro.fabric.channel import Channel
from repro.simulation.randomness import DeterministicRandom


def test_init_succeeds_on_healthy_deployment(desktop_deployment):
    assert desktop_deployment.client.init() is True


def test_init_fails_without_chaincode(desktop_deployment):
    client = desktop_deployment.client
    client.chaincode_name = "not-instantiated"
    with pytest.raises(ChaincodeError):
        client.init()


def test_init_checks_every_hosted_channel(desktop_deployment):
    """Regression: only shard 0's channel used to be validated."""
    fabric = desktop_deployment.fabric
    bare = Channel(name="bare-channel", msp=desktop_deployment.channel.msp)
    node = "bare-orderer"
    fabric.network.register_node(node)
    fabric.add_channel(
        bare,
        orderer=SoloOrderingService(node, fabric.engine),
        orderer_node=node,
        orderer_device=DeviceModel(node, XEON_E5_1603, rng=DeterministicRandom(1)),
    )
    with pytest.raises(ChaincodeError, match="bare-channel"):
        desktop_deployment.client.init()


def test_post_and_get_metadata_only(desktop_deployment):
    store = desktop_deployment.client.as_store()
    checksum = checksum_of(b"already stored elsewhere")
    post = store.submit(
        StoreRequest(
            key="external/1", checksum=checksum,
            location="file://edge-1/external/1",
            metadata={"source": "camera"}, size_bytes=17,
        )
    )
    desktop_deployment.drain()
    assert post.ok
    record = store.get("external/1")
    assert record.checksum == checksum
    assert record.location == "file://edge-1/external/1"
    assert record.metadata == {"source": "camera"}
    assert record.creator == "hyperprov-client"
    assert record.organization == "org1"


def test_store_data_roundtrip_with_offchain_storage(desktop_deployment):
    client = desktop_deployment.client
    store = client.as_store()
    payload = b"sensor reading 21.5C"
    post = store.submit(
        StoreRequest(key="sensors/1/r1", data=payload, metadata={"unit": "C"})
    )
    desktop_deployment.drain()
    assert post.ok
    assert post.storage_receipt is not None
    assert post.storage_receipt.checksum == checksum_of(payload)

    result = client.get_data("sensors/1/r1")
    assert result.verified
    assert result.data == payload
    assert result.timings["chain_s"] > 0
    assert result.timings["storage_s"] > 0


def test_payload_upload_is_charged_to_the_client_host(desktop_deployment):
    """The client hashes, encrypts and sends the payload itself: its device
    and its link to the storage node pay for the upload."""
    device = desktop_deployment.client_device
    payload = b"p" * 256 * 1024
    before = device.busy_time(component="cpu")
    post = desktop_deployment.client.as_store().submit(StoreRequest(key="upload/1", data=payload))
    assert device.busy_time(component="cpu") > before
    desktop_deployment.drain()
    bare = desktop_deployment.storage_backend.store(
        "bare/upload", payload, at_time=desktop_deployment.engine.now + 100.0
    )
    assert post.ok and post.storage_receipt.duration_s > bare.duration_s


def test_get_data_detects_offchain_tampering(desktop_deployment):
    client = desktop_deployment.client
    payload = b"original"
    post = client.as_store().submit(StoreRequest(key="tamper/1", data=payload))
    desktop_deployment.drain()
    # Corrupt the off-chain object behind the chain's back.
    path = desktop_deployment.storage.path_for(post.record.checksum)
    backend = desktop_deployment.storage_backend
    obj = backend.get_object(path)
    backend._objects[path] = type(obj)(
        path=obj.path, data=b"corrupted", checksum=obj.checksum, stored_at=obj.stored_at
    )
    with pytest.raises(Exception):
        client.get_data("tamper/1")


def test_verify_accepts_bytes_and_checksums(desktop_deployment):
    store = desktop_deployment.client.as_store()
    payload = b"integrity matters"
    store.submit(StoreRequest(key="check/1", data=payload))
    desktop_deployment.drain()
    assert store.verify("check/1", payload).matches is True
    assert store.verify("check/1", checksum_of(payload)).matches is True
    assert store.verify("check/1", b"modified").matches is False


def test_history_shows_every_version(desktop_deployment):
    store = desktop_deployment.client.as_store()
    for version in (b"v1", b"v2", b"v3"):
        store.submit(StoreRequest(key="versioned/key", data=version))
        desktop_deployment.drain()
    history = store.history("versioned/key")
    assert len(history) == 3
    checksums = [entry.view.checksum for entry in history]
    assert checksums == [checksum_of(b"v1"), checksum_of(b"v2"), checksum_of(b"v3")]


def test_get_dependencies_and_lineage(desktop_deployment):
    client = desktop_deployment.client
    store = client.as_store()
    store.submit(StoreRequest(key="raw/a", data=b"a"))
    store.submit(StoreRequest(key="raw/b", data=b"b"))
    desktop_deployment.drain()
    store.submit(
        StoreRequest(key="derived/ab", data=b"ab", dependencies=("raw/a", "raw/b"))
    )
    desktop_deployment.drain()

    deps = client.get_dependencies("derived/ab").payload
    assert sorted(deps) == ["raw/a", "raw/b"]

    lineage = client.get_lineage("derived/ab")
    assert lineage.ancestor_count == 2
    assert lineage.contributing_agents == ["agent:org1/hyperprov-client"]


def test_get_by_range_excludes_internal_keys(desktop_deployment):
    client = desktop_deployment.client
    store = client.as_store()
    store.submit(StoreRequest(key="range/a", data=b"1"))
    store.submit(StoreRequest(key="range/b", data=b"2"))
    desktop_deployment.drain()
    rows = client.get_by_range("range/", "range/~").payload
    assert [row["key"] for row in rows] == ["range/a", "range/b"]
    assert all(isinstance(row["record"], RecordView) for row in rows)


def test_get_missing_key_raises(desktop_deployment):
    store = desktop_deployment.client.as_store()
    with pytest.raises(NotFoundError):
        store.get("does/not/exist")
    with pytest.raises(NotFoundError):
        store.history("does/not/exist")


def test_store_data_requires_storage_backend(desktop_deployment):
    client = HyperProvClient(
        network=desktop_deployment.fabric, client_name="hyperprov-client", storage=None
    )
    with pytest.raises(ValidationError):
        client.as_store().submit(StoreRequest(key="k", data=b"x"))
    with pytest.raises(ValidationError):
        client.get_data("k")


def test_query_latencies_are_recorded(desktop_deployment):
    client = desktop_deployment.client
    store = client.as_store()
    store.submit(StoreRequest(key="lat/1", data=b"x"))
    desktop_deployment.drain()
    result = store.get("lat/1")
    assert result.latency_s > 0
    assert client.metrics.get_histogram("op.latency_s", op="get").count == 1
