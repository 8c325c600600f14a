"""Simulated power meter (ODROID Smart Power style).

The meter samples a device's power at a fixed interval of virtual time and
aggregates samples into measurement intervals (the paper uses 10-minute
intervals in Fig. 3), reporting mean power, peak power and total energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common.errors import ConfigurationError
from repro.energy.power import PowerModel, PowerSample


@dataclass
class IntervalReport:
    """Aggregated power statistics over one measurement interval."""

    label: str
    start: float
    end: float
    mean_watts: float
    max_watts: float
    min_watts: float
    energy_joules: float

    @property
    def energy_wh(self) -> float:
        """Energy in watt-hours (what a plug meter usually displays)."""
        return self.energy_joules / 3600.0


class PowerMeter:
    """Samples a :class:`PowerModel` over virtual time."""

    def __init__(self, model: PowerModel, sample_interval_s: float = 1.0) -> None:
        if sample_interval_s <= 0:
            raise ConfigurationError("sample interval must be positive")
        self.model = model
        self.sample_interval_s = sample_interval_s

    def sample_window(self, start: float, end: float) -> List[PowerSample]:
        """Sample power over ``[start, end]`` at the configured interval."""
        if end <= start:
            raise ConfigurationError("measurement window must have positive length")
        samples: List[PowerSample] = []
        cursor = start
        while cursor < end - 1e-12:
            window_end = min(cursor + self.sample_interval_s, end)
            samples.append(self.model.power_over((cursor, window_end)))
            cursor = window_end
        return samples

    def measure_interval(
        self,
        start: float,
        end: float,
        label: str = "",
    ) -> IntervalReport:
        """Produce the aggregated report for one measurement interval."""
        samples = self.sample_window(start, end)
        watts = [s.watts for s in samples]
        # Energy integrates each sample over its own sub-window length.
        energy = 0.0
        cursor = start
        for sample in samples:
            window_end = min(cursor + self.sample_interval_s, end)
            energy += sample.watts * (window_end - cursor)
            cursor = window_end
        return IntervalReport(
            label=label,
            start=start,
            end=end,
            mean_watts=sum(watts) / len(watts),
            max_watts=max(watts),
            min_watts=min(watts),
            energy_joules=energy,
        )
