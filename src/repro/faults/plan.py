"""Declarative, deterministic fault plans.

A :class:`FaultPlan` is a pure description of *what goes wrong and when*,
expressed in virtual time: site partitions that later heal, peer crashes
with recovery, orderer intake stalls, degraded links, byzantine ledger
rewrites and device churn.  Plans are frozen data — they carry no
behaviour and can be validated, printed and compared independently of
any deployment.  The :class:`~repro.faults.injector.FaultInjector` turns
a plan into scheduled simulation events; because every injection rides
the discrete-event clock and the plan's seeded RNG, the same plan on the
same deployment produces byte-identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple, Type, Union

from repro.common.errors import ConfigurationError


def _check_window(name: str, start_s: float, end_s: float) -> None:
    if not (math.isfinite(start_s) and math.isfinite(end_s)):
        raise ConfigurationError(
            f"{name}: start_s and end_s must be finite (got {start_s}, {end_s})"
        )
    if start_s < 0:
        raise ConfigurationError(f"{name}: start_s must be >= 0 (got {start_s})")
    if end_s < start_s:
        raise ConfigurationError(
            f"{name}: end_s ({end_s}) must be >= start_s ({start_s})"
        )


@dataclass(frozen=True)
class PartitionFault:
    """Split the node universe into isolated groups for a time window.

    ``groups`` name the nodes to isolate; nodes absent from every group
    form the implicit remainder (the usual "edge site cut off from the
    cloud" shape names just the site's nodes).  A zero-duration window
    (``end_s == start_s``) is a legal no-op: the fault is never active at
    any boundary instant.  Overlapping partition faults compose with
    intersection semantics — two nodes can talk only if every active
    fault allows it.
    """

    start_s: float
    end_s: float
    groups: Tuple[Tuple[str, ...], ...]

    def __post_init__(self) -> None:
        # Normalise nested sequences so plans hash/compare structurally.
        object.__setattr__(
            self, "groups", tuple(tuple(group) for group in self.groups)
        )

    def validate(self) -> None:
        _check_window("PartitionFault", self.start_s, self.end_s)
        if not self.groups or all(not group for group in self.groups):
            raise ConfigurationError("PartitionFault: needs at least one named node")


@dataclass(frozen=True)
class ChurnFault:
    """One device drops off the network for a window, then returns.

    Modelled as a single-node partition: during the window the device can
    reach nobody (and nobody can reach it); on return it is healed back
    in and caught up like any partition survivor.
    """

    start_s: float
    end_s: float
    device: str

    def validate(self) -> None:
        _check_window("ChurnFault", self.start_s, self.end_s)
        if not self.device:
            raise ConfigurationError("ChurnFault: device name must be non-empty")


@dataclass(frozen=True)
class PeerCrashFault:
    """A peer process dies at ``start_s`` and restarts at ``end_s``.

    While down the peer endorses nothing, serves no queries and misses
    every block delivery; the restart replays the missed blocks (state
    recovery) before the peer serves traffic again.
    """

    start_s: float
    end_s: float
    peer: str

    def validate(self) -> None:
        _check_window("PeerCrashFault", self.start_s, self.end_s)
        if not self.peer:
            raise ConfigurationError("PeerCrashFault: peer name must be non-empty")


@dataclass(frozen=True)
class OrdererStallFault:
    """One shard's ordering service stops cutting blocks for a window.

    Intake keeps accepting transactions (the backlog grows); on resume
    the backlog drains in the order it arrived.
    """

    start_s: float
    end_s: float
    shard: int = 0

    def validate(self) -> None:
        _check_window("OrdererStallFault", self.start_s, self.end_s)
        if self.shard < 0:
            raise ConfigurationError("OrdererStallFault: shard must be >= 0")


@dataclass(frozen=True)
class LinkDegradeFault:
    """One directed link gets slower/lossy for a window (not severed)."""

    start_s: float
    end_s: float
    source: str
    destination: str
    extra_latency_s: float = 0.0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0

    def validate(self) -> None:
        _check_window("LinkDegradeFault", self.start_s, self.end_s)
        if not self.source or not self.destination:
            raise ConfigurationError("LinkDegradeFault: endpoints must be non-empty")
        if not math.isfinite(self.extra_latency_s) or self.extra_latency_s < 0:
            raise ConfigurationError(
                "LinkDegradeFault: extra_latency_s must be finite and >= 0 "
                f"(got {self.extra_latency_s})"
            )
        for rate_name in ("drop_rate", "duplicate_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"LinkDegradeFault: {rate_name} must be in [0, 1] (got {rate})"
                )


@dataclass(frozen=True)
class ByzantineFault:
    """A peer rewrites one committed transaction in its ledger copy.

    Fires once at ``at_s``.  ``block_number=-1`` targets the newest block
    on the peer at fire time; if the peer's ledger is still empty the
    injection is recorded as skipped rather than failing the run.
    """

    at_s: float
    peer: str
    block_number: int = -1
    tx_position: int = 0
    shard: int = 0

    def validate(self) -> None:
        if not math.isfinite(self.at_s) or self.at_s < 0:
            raise ConfigurationError(
                f"ByzantineFault: at_s must be finite and >= 0 (got {self.at_s})"
            )
        if not self.peer:
            raise ConfigurationError("ByzantineFault: peer name must be non-empty")
        if self.block_number < -1:
            raise ConfigurationError(
                "ByzantineFault: block_number must be >= 0, or -1 for newest"
            )
        if self.tx_position < 0:
            raise ConfigurationError("ByzantineFault: tx_position must be >= 0")
        if self.shard < 0:
            raise ConfigurationError("ByzantineFault: shard must be >= 0")


Fault = Union[
    PartitionFault,
    ChurnFault,
    PeerCrashFault,
    OrdererStallFault,
    LinkDegradeFault,
    ByzantineFault,
]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of fault injections over one simulated run."""

    seed: int
    faults: Tuple[Fault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def validate(self) -> "FaultPlan":
        for fault in self.faults:
            fault.validate()
        return self

    def of_type(self, *types: Type["Fault"]) -> Tuple[Fault, ...]:
        return tuple(fault for fault in self.faults if isinstance(fault, types))
