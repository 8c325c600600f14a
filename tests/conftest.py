"""Shared fixtures for the HyperProv test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.chaincode.hyperprov import HyperProvChaincode
from repro.consensus.batching import BatchConfig
from repro.core.topology import build_desktop_deployment, build_rpi_deployment
from repro.devices.model import DeviceModel
from repro.devices.profiles import RASPBERRY_PI_3B_PLUS, XEON_E5_1603
from repro.fabric.channel import Channel
from repro.fabric.peer import Peer
from repro.membership.identity import Organization
from repro.membership.msp import MSP
from repro.membership.policies import MajorityPolicy
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import DeterministicRandom

# Property-test profiles.  ``tier1`` (the default) draws the same examples
# on every run, so two runs of the suite test the same thing; ``deep``
# (``pytest --hypothesis-profile=deep``) draws fresh ones, ten times the
# default budget, and replays failures from the example database.  A test
# that sets its own ``max_examples`` keeps it under both.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("deep", max_examples=10 * settings.default.max_examples)
settings.load_profile("tier1")


@pytest.fixture
def engine() -> SimulationEngine:
    """A fresh discrete-event engine."""
    return SimulationEngine()


@pytest.fixture
def rng() -> DeterministicRandom:
    """A deterministic random stream with a fixed seed."""
    return DeterministicRandom(42)


@pytest.fixture
def desktop_device() -> DeviceModel:
    """A Xeon-class device model."""
    return DeviceModel("xeon", XEON_E5_1603, rng=DeterministicRandom(1))


@pytest.fixture
def rpi_device() -> DeviceModel:
    """A Raspberry Pi 3B+ device model."""
    return DeviceModel("rpi", RASPBERRY_PI_3B_PLUS, rng=DeterministicRandom(2))


@pytest.fixture
def organizations() -> list:
    """Four organizations, one per peer, like the paper's testbeds."""
    return [Organization(f"org{i + 1}") for i in range(4)]


@pytest.fixture
def msp(organizations) -> MSP:
    return MSP(organizations)


@pytest.fixture
def channel(msp) -> Channel:
    return Channel(name="test-channel", msp=msp, batch_config=BatchConfig())


@pytest.fixture
def single_peer(channel, organizations) -> Peer:
    """One peer joined to the test channel with HyperProv instantiated."""
    org = organizations[0]
    identity = org.enroll("peer0", role="peer")
    device = DeviceModel("peer0-device", XEON_E5_1603, rng=DeterministicRandom(3))
    peer = Peer(name="peer0.org1", identity=identity, device=device, channel=channel)
    channel.instantiate_chaincode(
        HyperProvChaincode(), endorsement_policy=MajorityPolicy(["org1"])
    )
    return peer


@pytest.fixture
def desktop_deployment():
    """The paper's desktop setup (4 x86-64 peers, Solo orderer, SSHFS storage)."""
    return build_desktop_deployment(seed=42)


@pytest.fixture
def rpi_deployment():
    """The paper's Raspberry Pi setup."""
    return build_rpi_deployment(seed=42)
