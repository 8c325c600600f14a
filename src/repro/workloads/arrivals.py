"""Arrival processes: when transactions are submitted.

Both are open-loop Poisson timelines, pre-sampled into lists:

* :func:`sample_poisson_times` — one stream at a target rate, used by
  the energy benchmark to hold a load level for a measurement interval, and
* :class:`CohortArrivalPlan` — one stream per device of a fleet, sampled
  in one pass (with optional churn gaps) instead of resuming a generator
  per event, so a 10k-device fleet materializes its submission timeline
  in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.simulation.randomness import DeterministicRandom

#: A churned device is offline for this fraction of the run, placed
#: deterministically per device (:class:`CohortArrivalPlan`).
CHURN_OFFLINE_FRACTION = 0.25


def sample_poisson_times(
    rng: DeterministicRandom,
    rate_per_s: float,
    duration_s: float,
) -> List[float]:
    """Pre-sample a whole Poisson arrival timeline in one tight pass.

    The per-event generator protocol costs a frame resume per arrival; at
    fleet scale (10k+ devices) that shows up on the wall-clock hot path, so
    this samples every gap in one loop with the RNG method bound to a local.
    """
    if rate_per_s < 0:
        raise ConfigurationError("arrival rate cannot be negative")
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    if rate_per_s == 0:
        return []
    times: List[float] = []
    append = times.append
    exponential = rng.exponential
    mean_gap = 1.0 / rate_per_s
    cursor = 0.0
    while True:
        cursor += exponential(mean_gap)
        if cursor >= duration_s:
            return times
        append(cursor)


@dataclass(frozen=True)
class DeviceArrivals:
    """One device's pre-sampled submission times (churn gaps already cut)."""

    device_index: int
    shard: int
    times: Tuple[float, ...]
    #: ``(leave, rejoin)`` churn window that was cut out, if any.
    offline_window: Optional[Tuple[float, float]] = None


@dataclass
class CohortArrivalPlan:
    """Vectorized arrival schedules for a whole device fleet.

    Every device gets its own deterministic Poisson stream (forked from the
    cohort seed by device index, never by construction order), pre-sampled
    into a flat list.  Churned devices get an offline window cut out of
    their timeline — the join/leave model is a schedule property, so the
    same plan drives the sequential engine and the per-shard workers bit
    for bit.

    Workers rebuild the plan locally from the spec instead of receiving
    10k timelines over a pipe, which keeps the worker-process command
    boundary thin.
    """

    devices: int
    shards: int
    rate_per_device_s: float
    duration_s: float
    seed: int = 42
    #: Fraction of devices that leave mid-run and rejoin later (churn).
    churn_fraction: float = 0.0
    _schedules: List[DeviceArrivals] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ConfigurationError("a cohort needs at least one device")
        if self.shards < 1:
            raise ConfigurationError("a cohort needs at least one shard")
        if not 0.0 <= self.churn_fraction <= 1.0:
            raise ConfigurationError("churn_fraction must be in [0, 1]")
        root = DeterministicRandom(self.seed)
        churn_period = (
            int(1.0 / self.churn_fraction) if self.churn_fraction > 0 else 0
        )
        for index in range(self.devices):
            rng = root.fork(f"arrivals:{index}")
            times = sample_poisson_times(
                rng, self.rate_per_device_s, self.duration_s
            )
            offline: Optional[Tuple[float, float]] = None
            if churn_period and index % churn_period == churn_period - 1:
                # Deterministic per-device offline window, jittered by the
                # device's own stream so the fleet does not churn in lockstep.
                width = self.duration_s * CHURN_OFFLINE_FRACTION
                start = rng.uniform(0.1, 0.9 - CHURN_OFFLINE_FRACTION)
                leave = start * self.duration_s
                rejoin = leave + width
                times = [t for t in times if not leave <= t < rejoin]
                offline = (leave, rejoin)
            self._schedules.append(
                DeviceArrivals(
                    device_index=index,
                    shard=index % self.shards,
                    times=tuple(times),
                    offline_window=offline,
                )
            )

    def merged(self) -> List[Tuple[float, int]]:
        """``(time, device_index)`` pairs sorted by time (ties by device).

        This is the submission order both executors use, so per-shard
        relative order is identical whether the fleet runs on one engine or
        on per-shard workers.
        """
        pairs = [
            (time, schedule.device_index)
            for schedule in self._schedules
            for time in schedule.times
        ]
        pairs.sort()
        return pairs
