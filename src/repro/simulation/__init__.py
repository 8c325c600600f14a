"""Discrete-event simulation engine.

All "time" in the HyperProv reproduction is virtual.  Node computation,
network transfers and energy accounting charge durations to the
:class:`~repro.simulation.engine.SimulationEngine`'s clock, which lets the
benchmark harness sweep the paper's 10-minute measurement intervals in
milliseconds of wall-clock time and keeps every run deterministic.
"""

from repro.simulation.clock import VirtualClock
from repro.simulation.engine import SimulationEngine, Event
from repro.simulation.resources import SimResource, ResourceBusyError
from repro.simulation.randomness import DeterministicRandom

__all__ = [
    "VirtualClock",
    "SimulationEngine",
    "Event",
    "SimResource",
    "ResourceBusyError",
    "DeterministicRandom",
]
