"""Point-to-point network links with latency and bandwidth."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.simulation.randomness import DeterministicRandom


@dataclass(frozen=True)
class LinkProfile:
    """Static characteristics of a link.

    Attributes
    ----------
    latency_s:
        One-way propagation + switching delay in seconds.
    bandwidth_bps:
        Usable bandwidth in bits per second.
    jitter_fraction:
        Relative standard deviation applied to the latency (models the
        larger variance observed on the RPi testbed's USB-attached NIC).
    loss_rate:
        Probability that a message must be retransmitted once (adds one
        extra round of latency); kept simple because the paper's testbeds
        are single-switch LANs.
    """

    latency_s: float = 0.0002
    bandwidth_bps: float = 1_000_000_000.0
    jitter_fraction: float = 0.05
    loss_rate: float = 0.0

    def validate(self) -> None:
        if self.latency_s < 0:
            raise ConfigurationError("link latency cannot be negative")
        if self.bandwidth_bps <= 0:
            raise ConfigurationError("link bandwidth must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError("loss rate must be in [0, 1)")


#: Gigabit switched LAN between the desktop nodes.
GIGABIT_LAN = LinkProfile(latency_s=0.0002, bandwidth_bps=940_000_000.0, jitter_fraction=0.03)

#: 100 Mbit/s effective link of the RPi 3B+ (USB 2.0 attached gigabit PHY
#: caps out near 300 Mbit/s; with HLF's TLS overhead the effective rate is lower).
RPI_LAN = LinkProfile(latency_s=0.0006, bandwidth_bps=220_000_000.0, jitter_fraction=0.12)


class Link:
    """A directed link between two named nodes."""

    def __init__(
        self,
        source: str,
        destination: str,
        profile: LinkProfile,
        rng: DeterministicRandom,
    ) -> None:
        profile.validate()
        self.source = source
        self.destination = destination
        self.profile = profile
        self._rng = rng

    def transfer_time(self, payload_bytes: int) -> float:
        """Seconds needed to move ``payload_bytes`` across this link.

        Includes propagation latency (with jitter), serialization time at
        the profile's bandwidth, and a possible single retransmission.
        """
        if payload_bytes < 0:
            raise ConfigurationError("payload size cannot be negative")
        profile = self.profile
        latency = self._rng.gaussian_jitter(profile.latency_s, profile.jitter_fraction)
        serialization = (payload_bytes * 8.0) / profile.bandwidth_bps
        total = latency + serialization
        if profile.loss_rate > 0 and self._rng.random() < profile.loss_rate:
            total += latency + serialization
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Link({self.source!r} -> {self.destination!r}, "
            f"{self.profile.bandwidth_bps / 1e6:.0f} Mbit/s)"
        )
