"""The debugging reprs name the object and the state a reader looks for."""

from __future__ import annotations

import pytest

from repro.api import HyperProvService, StoreRequest
from repro.core.topology import build_desktop_deployment
from repro.ledger.world_state import VersionedValue
from repro.membership.identity import Organization
from repro.network.link import Link, LinkProfile
from repro.simulation.clock import VirtualClock
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import DeterministicRandom


def _handle():
    store = build_desktop_deployment(seed=42).client.as_store()
    return store.submit(StoreRequest(key="repr/a", data=b"a"))


def _session():
    return HyperProvService(build_desktop_deployment(seed=42)).session(tenant="acme")


def _organization():
    org = Organization("org7")
    org.enroll("peer0")
    return org


def _clock():
    clock = VirtualClock()
    clock.advance_to(1.5)
    return clock


@pytest.mark.parametrize("build, expected", [
    (_handle, "<SubmitHandle 'repr/a' backend=hyperprov in-flight>"),
    (_session, "<ProvenanceSession tenant=acme backend=hyperprov in_flight=0>"),
    (lambda: VersionedValue("v", (1, 2)), "VersionedValue(value='v', version=(1, 2))"),
    (_organization, "Organization('org7', identities=1)"),
    (lambda: Link("a", "b", LinkProfile(latency_s=0.001, bandwidth_bps=1e8),
                  DeterministicRandom(7)),
     "Link('a' -> 'b', 100 Mbit/s)"),
    (_clock, "VirtualClock(now=1.500000)"),
    (lambda: SimulationEngine().run(), "RunOutcome(0, stop_reason='idle')"),
])
def test_repr_names_the_object_and_its_state(build, expected):
    assert repr(build()) == expected
