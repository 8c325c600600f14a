"""Contract tests: one assertion set, all three ``ProvenanceStore`` backends.

The suite runs identical store/get/history/verify assertions against the
HyperProv client's store, the central database and the PoW chain (each
baseline is a store itself), then checks each backend's tamper-evidence
semantics through the uniform ``audit()`` call.
"""

from __future__ import annotations

import pytest

from repro.api import HyperProvService, ProvenanceStore, StoreRequest
from repro.baselines.centraldb import CentralProvenanceDatabase
from repro.baselines.provchain import PowProvenanceChain
from repro.common.errors import (
    ConfigurationError,
    IncompleteTransactionError,
    NotFoundError,
    ValidationError,
)
from repro.common.hashing import checksum_of
from repro.core.topology import build_desktop_deployment
from repro.devices.model import DeviceModel
from repro.devices.profiles import RASPBERRY_PI_3B_PLUS, XEON_E5_1603
from repro.middleware.config import PipelineConfig
from repro.simulation.randomness import DeterministicRandom

BACKENDS = ("hyperprov", "central-db", "provchain-pow")


def _build_store(backend: str) -> ProvenanceStore:
    if backend == "hyperprov":
        return build_desktop_deployment(seed=42).client.as_store()
    if backend == "central-db":
        device = DeviceModel("srv", XEON_E5_1603, rng=DeterministicRandom(7))
        return CentralProvenanceDatabase(server_device=device)
    device = DeviceModel("miner", RASPBERRY_PI_3B_PLUS, rng=DeterministicRandom(8))
    return PowProvenanceChain(device, difficulty_bits=8, rng=DeterministicRandom(9))


@pytest.fixture(params=BACKENDS)
def store(request) -> ProvenanceStore:
    return _build_store(request.param)


# ----------------------------------------------------------------- protocol
def test_backends_satisfy_the_protocol(store):
    assert isinstance(store, ProvenanceStore)
    assert store.backend_name in BACKENDS


def test_hyperprov_store_is_cached_per_client():
    store = _build_store("hyperprov")
    assert store.client.as_store() is store


def test_store_then_get_roundtrip(store):
    handle = store.store(StoreRequest(key="contract/a", data=b"payload-a"))
    assert handle.done and handle.ok
    assert handle.latency_s > 0
    receipt = handle.result()
    assert receipt.ok and receipt.backend == store.backend_name
    view = store.get("contract/a")
    assert view.key == "contract/a"
    assert view.checksum == checksum_of(b"payload-a")


def test_get_missing_key_raises(store):
    with pytest.raises(NotFoundError):
        store.get("contract/never-stored")
    with pytest.raises(NotFoundError):
        store.history("contract/never-stored")


def test_history_lists_every_version_oldest_first(store):
    for version in (b"v1", b"v2", b"v3"):
        store.store(StoreRequest(key="contract/hist", data=version))
    history = store.history("contract/hist")
    assert len(history) == 3
    checksums = [entry.view.checksum for entry in history]
    assert checksums == [checksum_of(b"v1"), checksum_of(b"v2"), checksum_of(b"v3")]


def test_verify_accepts_original_and_rejects_forgery(store):
    store.store(StoreRequest(key="contract/v", data=b"genuine"))
    assert store.verify("contract/v", b"genuine")
    assert store.verify("contract/v", checksum_of(b"genuine"))
    assert not store.verify("contract/v", b"forged")


def test_metadata_and_dependencies_roundtrip(store):
    store.store(StoreRequest(key="contract/dep", data=b"base"))
    store.store(
        StoreRequest(
            key="contract/derived",
            data=b"derived",
            dependencies=("contract/dep",),
            metadata={"stage": "thumb"},
        )
    )
    view = store.get("contract/derived")
    assert view.dependencies == ("contract/dep",)
    assert view.metadata["stage"] == "thumb"


def test_audit_is_clean_without_tampering(store):
    store.store(StoreRequest(key="contract/audit", data=b"ok"))
    assert store.audit() is True


def test_mutating_a_handle_record_changes_nothing_stored(store):
    handle = store.store(
        StoreRequest(key="contract/alias", data=b"kept", metadata={"stage": {"n": 1}})
    )
    echo = handle.record
    echo.checksum = checksum_of(b"forged")
    echo.metadata["stage"]["n"] = 2
    echo.dependencies.append("contract/forged")
    view = store.get("contract/alias")
    assert view.checksum == checksum_of(b"kept")
    assert view.metadata == {"stage": {"n": 1}} and view.dependencies == ()
    [entry] = store.history("contract/alias").entries
    assert entry.view.checksum == checksum_of(b"kept")
    assert store.audit() is True


# ------------------------------------------------------- tamper semantics
@pytest.mark.parametrize("backend", BACKENDS[1:])
def test_baselines_refuse_rich_queries_and_subscriptions(backend):
    store = _build_store(backend)
    with pytest.raises(ConfigurationError, match="rich queries"):
        store.query({"creator": "alice"})
    with pytest.raises(ConfigurationError, match="continuous queries"):
        store.subscribe({"creator": "alice"})


@pytest.mark.parametrize("backend", BACKENDS[1:])
def test_baselines_have_nothing_to_drain_or_release(backend):
    store = _build_store(backend)
    handle = store.submit(StoreRequest(key="sync/a", data=b"a"))
    assert handle.done  # a synchronous backend completes on submit
    store.drain()
    store.close()
    assert store.get("sync/a").checksum == checksum_of(b"a")


def test_tamper_evidence_matches_backend_semantics():
    """PoW exposes rewrites via audit; the central DB never notices."""
    pow_store = _build_store("provchain-pow")
    pow_store.store(StoreRequest(key="t", data=b"original"))
    pow_store.tamper("t", checksum_of(b"forged"))
    assert pow_store.audit() is False  # hash chain broke: evidence

    central = _build_store("central-db")
    central.store(StoreRequest(key="t", data=b"original"))
    central.tamper("t", checksum_of(b"forged"))
    assert central.audit() is True  # silent rewrite: no evidence
    assert not central.verify("t", b"original")  # history was rewritten


def test_hyperprov_audit_detects_local_ledger_rewrite():
    deployment = build_desktop_deployment(seed=42)
    store = deployment.client.as_store()
    store.store(StoreRequest(key="t", data=b"original"))
    victim = deployment.peers[0]
    block = victim.block_store.block(0)
    position = next(
        i for i, t in enumerate(block.transactions) if t.function == "set"
    )
    # Committed envelopes are sealed and shared across peers; the rewrite
    # goes through the peer's copy-on-write tamper hook.
    tx = victim.tamper(0, position)
    tx.args[1] = checksum_of(b"forged")
    assert store.audit() is False


def test_hyperprov_audit_covers_every_shard():
    """Regression: a rewrite on a shard-1 ledger used to pass the audit."""
    deployment = build_desktop_deployment(seed=42, shards=2)
    session = HyperProvService(deployment).session(pipeline=PipelineConfig(shards=2))
    for i in range(8):
        session.submit(f"audit/{i}", f"v{i}".encode())
    session.drain()
    assert min(deployment.fabric.shard_ledger_heights(1).values()) >= 1
    assert session.audit() is True
    victim = deployment.fabric.shard(1).ordered_peers[0]
    victim.tamper(0, 0).args[1] = "f" * 64
    assert victim.block_store.verify_chain() is False
    assert session.audit() is False


# -------------------------------------------------------------- envelopes
def test_metadata_only_submit_requires_checksum_and_location(store):
    with pytest.raises(ValidationError):
        store.submit(StoreRequest(key="meta/only"))
    with pytest.raises(ValidationError):
        store.submit(StoreRequest(key="meta/only", checksum=checksum_of(b"elsewhere")))
    with pytest.raises(ValidationError):
        store.submit(
            StoreRequest(key="meta/only", data=b"here", checksum=checksum_of(b"elsewhere"))
        )
    handle = store.store(
        StoreRequest(
            key="meta/only",
            checksum=checksum_of(b"elsewhere"),
            location="file://elsewhere",
        )
    )
    assert handle.ok
    assert store.get("meta/only").location == "file://elsewhere"


@pytest.mark.parametrize("containers", [
    {"dependencies": "contract/dep"},
    {"dependencies": {"contract/dep": 1}},
    {"dependencies": (["contract/dep"],)},
    {"dependencies": ("",)},
    {"metadata": ["not", "a", "map"]},
    {"metadata": None},
])
def test_a_request_with_malformed_containers_is_refused_alike(store, containers):
    store.store(StoreRequest(key="contract/dep", data=b"base"))
    with pytest.raises(ValidationError, match="StoreRequest"):
        store.submit(StoreRequest(key="contract/bad", data=b"bad", **containers))
    with pytest.raises(NotFoundError):
        store.get("contract/bad")


@pytest.mark.parametrize("containers", [
    {"dependencies": "sensor/1"},
    {"metadata": ["not", "a", "map"]},
])
def test_a_session_refuses_malformed_containers_before_submitting(containers):
    session = HyperProvService(build_desktop_deployment(seed=42)).session()
    with pytest.raises(ValidationError, match="StoreRequest"):
        session.submit("sensor/2", b"x", **containers)
    assert session.in_flight == 0


def test_a_request_keeps_copies_of_its_containers():
    dependencies, metadata = ["contract/dep"], {"stage": "raw"}
    request = StoreRequest(
        key="contract/own", data=b"x", dependencies=dependencies, metadata=metadata
    )
    dependencies.append("contract/other")
    metadata["stage"] = "changed"
    assert request.dependencies == ("contract/dep",)
    assert request.metadata == {"stage": "raw"}


def test_hyperprov_submit_is_nonblocking_and_result_gated():
    store = _build_store("hyperprov")
    handle = store.submit(StoreRequest(key="async/1", data=b"payload"))
    assert not handle.done
    with pytest.raises(IncompleteTransactionError):
        handle.result()
    with pytest.raises(IncompleteTransactionError):
        _ = handle.latency_s
    store.drain()
    assert handle.done and handle.ok
    assert handle.result().latency_s > 0


def test_post_result_total_latency_contract(desktop_deployment):
    store = desktop_deployment.client.as_store()
    post = store.submit(StoreRequest(key="latency/1", data=b"x"))
    with pytest.raises(IncompleteTransactionError):
        _ = post.latency_s
    desktop_deployment.drain()
    assert post.latency_s == post.storage_receipt.duration_s + post.handle.latency_s > 0
