"""Arrival processes: when transactions are submitted.

Three models are provided:

* :class:`ClosedLoopSchedule` — a fixed number of outstanding clients,
  each submitting its next request as soon as the previous one finishes
  (this is how the paper's custom benchmarking program drives load),
* :class:`PoissonSchedule` — open-loop arrivals at a target rate, used by
  the energy benchmark to hold a load level for a measurement interval, and
* :class:`CohortArrivalPlan` — a *vectorized* plan for fleet-scale runs:
  whole per-device arrival schedules are pre-sampled in one pass (with
  optional churn gaps) instead of resuming a generator per event, so a
  10k-device fleet materializes its submission timeline in milliseconds
  and the plan can be sliced per shard without re-sampling.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.simulation.randomness import DeterministicRandom

#: A churned device is offline for this fraction of the run, placed
#: deterministically per device (:class:`CohortArrivalPlan`).
CHURN_OFFLINE_FRACTION = 0.25


class ArrivalProcess(ABC):
    """Produces the virtual-time points at which requests are issued."""

    @abstractmethod
    def arrival_times(self) -> Iterator[float]:
        """Yield absolute submission times, in non-decreasing order."""


class ClosedLoopSchedule(ArrivalProcess):
    """Back-to-back submissions from ``concurrency`` logical clients.

    The discrete-event flow completes each transaction asynchronously, so
    the closed loop is approximated by pacing each logical client at its
    measured service time; the harness refines the pacing iteratively.
    """

    def __init__(
        self,
        total_requests: int,
        concurrency: int = 1,
        think_time_s: float = 0.0,
        estimated_service_time_s: float = 0.05,
    ) -> None:
        if total_requests < 1:
            raise ConfigurationError("total_requests must be >= 1")
        if concurrency < 1:
            raise ConfigurationError("concurrency must be >= 1")
        self.total_requests = total_requests
        self.concurrency = concurrency
        self.think_time_s = think_time_s
        self.estimated_service_time_s = estimated_service_time_s

    def arrival_times(self) -> Iterator[float]:
        period = self.estimated_service_time_s + self.think_time_s
        issued = 0
        round_index = 0
        while issued < self.total_requests:
            base = round_index * period
            for lane in range(self.concurrency):
                if issued >= self.total_requests:
                    break
                # Stagger lanes slightly so they do not collide on the client CPU.
                yield base + lane * (period / max(1, self.concurrency) / 10.0)
                issued += 1
            round_index += 1


class PoissonSchedule(ArrivalProcess):
    """Open-loop Poisson arrivals at ``rate_per_s`` for ``duration_s``."""

    def __init__(self, rate_per_s: float, duration_s: float, seed: int = 42,
                 start_time_s: float = 0.0) -> None:
        if rate_per_s < 0:
            raise ConfigurationError("arrival rate cannot be negative")
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        self.rate_per_s = rate_per_s
        self.duration_s = duration_s
        self.start_time_s = start_time_s
        self._rng = DeterministicRandom(seed)

    def arrival_times(self) -> Iterator[float]:
        if self.rate_per_s == 0:
            return
        cursor = self.start_time_s
        end = self.start_time_s + self.duration_s
        mean_gap = 1.0 / self.rate_per_s
        while True:
            cursor += self._rng.exponential(mean_gap)
            if cursor >= end:
                return
            yield cursor

    def expected_count(self) -> int:
        """Expected number of arrivals over the schedule."""
        return int(self.rate_per_s * self.duration_s)

    def sample(self) -> List[float]:
        """Pre-sample the whole schedule into one list (vectorized form).

        Draws are taken in the same order as :meth:`arrival_times`, so a
        freshly constructed schedule produces the identical timeline either
        way; the list form avoids resuming a generator per scheduled event.
        """
        return sample_poisson_times(
            self._rng, self.rate_per_s, self.duration_s, self.start_time_s
        )


def sample_poisson_times(
    rng: DeterministicRandom,
    rate_per_s: float,
    duration_s: float,
    start_time_s: float = 0.0,
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
    cursor = start_time_s
    end = start_time_s + duration_s
    while True:
        cursor += exponential(mean_gap)
        if cursor >= end:
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

    The plan is cheap to slice: :meth:`for_shard` filters the materialized
    schedules without re-sampling, which is what keeps the worker-process
    command boundary thin (workers rebuild the plan locally from the spec
    instead of receiving 10k timelines over a pipe).
    """

    devices: int
    shards: int
    rate_per_device_s: float
    duration_s: float
    seed: int = 42
    #: Fraction of devices that leave mid-run and rejoin later (churn).
    churn_fraction: float = 0.0
    _schedules: List[DeviceArrivals] = field(default_factory=list, repr=False)

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

    @property
    def schedules(self) -> List[DeviceArrivals]:
        return list(self._schedules)

    def for_shard(self, shard: int) -> List[DeviceArrivals]:
        """Schedules of the devices homed on one shard (plan order)."""
        return [s for s in self._schedules if s.shard == shard]

    def total_arrivals(self, shard: Optional[int] = None) -> int:
        selected = self._schedules if shard is None else self.for_shard(shard)
        return sum(len(s.times) for s in selected)

    def merged(self, shard: Optional[int] = None) -> List[Tuple[float, int]]:
        """``(time, device_index)`` pairs sorted by time (ties by device).

        This is the submission order both executors use, so per-shard
        relative order is identical whether the fleet runs on one engine or
        on per-shard workers.
        """
        selected = self._schedules if shard is None else self.for_shard(shard)
        pairs = [
            (time, schedule.device_index)
            for schedule in selected
            for time in schedule.times
        ]
        pairs.sort()
        return pairs


def merge_schedules(schedules: List[ArrivalProcess]) -> List[float]:
    """Merge several arrival processes into one sorted submission list."""
    times: List[float] = []
    for schedule in schedules:
        times.extend(schedule.arrival_times())
    return sorted(times)
