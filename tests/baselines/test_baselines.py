"""Tests for the ProvChain-style PoW baseline and the central DB baseline.

Both baselines are exercised through their unified
:class:`repro.api.ProvenanceStore` adapters (``as_store()``); only the
backend-specific surfaces (``tamper``, ``verify_chain``,
``detect_tampering``) are touched directly.
"""

import pytest

from repro.api.protocol import StoreRequest
from repro.baselines.centraldb import CentralProvenanceDatabase
from repro.baselines.provchain import PowProvenanceChain
from repro.common.errors import NotFoundError
from repro.common.hashing import checksum_of
from repro.devices.model import DeviceModel
from repro.devices.profiles import RASPBERRY_PI_3B_PLUS, XEON_E5_1603
from repro.simulation.randomness import DeterministicRandom


def _store(backend, key, data, creator="", at_time=None):
    """Blocking write via the unified store surface."""
    return backend.as_store().store(
        StoreRequest(key=key, data=data, creator=creator), at_time=at_time
    )


@pytest.fixture
def miner():
    return DeviceModel("miner", RASPBERRY_PI_3B_PLUS, rng=DeterministicRandom(1))


@pytest.fixture
def pow_chain(miner):
    return PowProvenanceChain(miner, difficulty_bits=12, rng=DeterministicRandom(2))


# ------------------------------------------------------------------- provchain
def test_pow_chain_stores_and_retrieves(pow_chain):
    result = _store(pow_chain, "item/1", b"payload", creator="alice")
    assert result.latency_s > 0
    assert pow_chain.as_store().get("item/1").checksum == checksum_of(b"payload")
    assert len(pow_chain.as_store().history("item/1")) == 1
    assert pow_chain.verify_chain()


def test_pow_chain_history_tracks_versions(pow_chain):
    store = pow_chain.as_store()
    _store(pow_chain, "item/1", b"v1")
    _store(pow_chain, "item/1", b"v2", at_time=10.0)
    assert len(store.history("item/1")) == 2
    assert store.get("item/1").checksum == checksum_of(b"v2")


def test_pow_chain_missing_key(pow_chain):
    with pytest.raises(NotFoundError):
        pow_chain.as_store().get("ghost")


def test_pow_chain_mining_pegs_the_cpu(pow_chain, miner):
    result = _store(pow_chain, "item/1", b"x")
    assert miner.busy_time(component="cpu") > 0
    assert result.ok and pow_chain._get("item/1").mined_in_s >= 0


def test_pow_chain_detects_tampering(pow_chain):
    _store(pow_chain, "item/1", b"original")
    assert pow_chain.as_store().audit()
    pow_chain.tamper("item/1", checksum_of(b"forged"))
    assert not pow_chain.as_store().audit()


def test_pow_chain_is_much_slower_than_low_difficulty():
    miner = DeviceModel("m", RASPBERRY_PI_3B_PLUS, rng=DeterministicRandom(3))
    easy = PowProvenanceChain(miner, difficulty_bits=8, rng=DeterministicRandom(4))
    hard = PowProvenanceChain(miner, difficulty_bits=22, rng=DeterministicRandom(4))
    easy_latency = _store(easy, "a", b"x").latency_s
    hard_latency = _store(hard, "b", b"x").latency_s
    assert hard_latency > easy_latency


# ------------------------------------------------------------------ central db
def test_central_db_store_and_get():
    server = DeviceModel("db", XEON_E5_1603, rng=DeterministicRandom(5))
    database = CentralProvenanceDatabase(server_device=server)
    result = _store(database, "item/1", b"payload", creator="alice")
    assert result.latency_s > 0
    assert database.as_store().get("item/1").checksum == checksum_of(b"payload")
    assert len(database.as_store().history("item/1")) == 1


def test_central_db_history_and_missing_key():
    server = DeviceModel("db", XEON_E5_1603)
    database = CentralProvenanceDatabase(server_device=server)
    _store(database, "k", b"v1")
    _store(database, "k", b"v2")
    assert len(database.as_store().history("k")) == 2
    with pytest.raises(NotFoundError):
        database.as_store().get("ghost")


def test_central_db_tampering_is_silent_and_undetected():
    """The property HyperProv exists to prevent: a central admin can rewrite
    provenance without any detectable trace."""
    server = DeviceModel("db", XEON_E5_1603)
    database = CentralProvenanceDatabase(server_device=server)
    _store(database, "k", b"original")
    forged = checksum_of(b"forged")
    database.tamper("k", forged)
    assert database.as_store().get("k").checksum == forged
    assert database.detect_tampering() == []


def test_central_db_is_faster_than_pow():
    server = DeviceModel("db", XEON_E5_1603, rng=DeterministicRandom(6))
    database = CentralProvenanceDatabase(server_device=server)
    miner = DeviceModel("m", RASPBERRY_PI_3B_PLUS, rng=DeterministicRandom(7))
    chain = PowProvenanceChain(miner, difficulty_bits=18, rng=DeterministicRandom(8))
    db_latency = _store(database, "k", b"x").latency_s
    pow_latency = _store(chain, "k", b"x").latency_s
    assert db_latency < pow_latency
