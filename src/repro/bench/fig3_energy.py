"""Fig. 3 — energy consumption on the RPi over 10-minute intervals.

The paper measures an RPi running both the peer and the client for
10-minute intervals at different load levels and reports that HyperProv
idling "barely consumes any power (2.71 W)" over an idle RPi, that peak
load is only ~10.7 % above idle on average, and that the maximum draw is
3.64 W.  The bench reproduces the interval series: idle without HLF, idle
with HLF, and three increasing StoreData load levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api.protocol import StoreRequest
from repro.bench.reporting import ResultTable
from repro.core.topology import build_rpi_deployment
from repro.devices.model import DeviceModel
from repro.devices.profiles import RASPBERRY_PI_3B_PLUS
from repro.energy.meter import IntervalReport, PowerMeter
from repro.energy.power import PowerModel
from repro.simulation.randomness import DeterministicRandom
from repro.workloads.arrivals import PoissonSchedule
from repro.workloads.payloads import PayloadGenerator

#: The paper's measurement interval (10 minutes).
INTERVAL_SECONDS = 600.0

#: Load levels: label → StoreData arrivals per second (1 KiB payloads).
DEFAULT_LOAD_LEVELS: Dict[str, float] = {
    "idle (no HLF)": 0.0,
    "idle (HLF running)": 0.0,
    "low load": 0.5,
    "medium load": 2.0,
    "peak load": 5.0,
}


@dataclass
class EnergyFigure:
    """Per-interval power reports, in measurement order."""

    intervals: List[IntervalReport] = field(default_factory=list)

    def report_for(self, label: str) -> IntervalReport:
        for interval in self.intervals:
            if interval.label == label:
                return interval
        raise KeyError(label)

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Fig. 3 — RPi energy consumption, 10-minute intervals",
            columns=["interval", "mean power (W)", "max power (W)", "energy (Wh)"],
        )
        for interval in self.intervals:
            table.add_row(
                interval.label,
                round(interval.mean_watts, 2),
                round(interval.max_watts, 2),
                round(interval.energy_wh, 3),
            )
        return table


def _measure_idle_without_hlf(duration_s: float) -> IntervalReport:
    """Power of a bare RPi with no HLF containers over one interval."""
    device = DeviceModel(
        name="rpi-idle",
        profile=RASPBERRY_PI_3B_PLUS,
        rng=DeterministicRandom(7),
        hlf_running=False,
    )
    meter = PowerMeter(PowerModel(device), sample_interval_s=10.0)
    return meter.measure_interval(0.0, duration_s, label="idle (no HLF)")


def _measure_load_level(
    label: str,
    rate_per_s: float,
    duration_s: float,
    payload_bytes: int,
    seed: int,
) -> IntervalReport:
    """Run a StoreData load level on a fresh RPi deployment and meter the
    device that hosts both the peer and the client (as in the paper)."""
    deployment = build_rpi_deployment(seed=seed)
    store = deployment.client.as_store()
    measured_device = deployment.client_device

    if rate_per_s > 0.0:
        schedule = PoissonSchedule(rate_per_s=rate_per_s, duration_s=duration_s, seed=seed)
        generator = PayloadGenerator(size_bytes=payload_bytes, seed=seed, prefix=f"energy/{label}")
        # Submissions run as engine events so device time is charged at the
        # arrival instants, not retroactively after the interval.
        for arrival in schedule.arrival_times():
            item = generator.next_item()
            deployment.engine.schedule_at(
                arrival,
                lambda item=item: store.submit(StoreRequest(key=item.key, data=item.data)),
                label="energy:store_data",
            )
        deployment.drain()
    # Ensure the virtual clock covers the whole interval even when idle.
    deployment.engine.run(until=duration_s)

    meter = PowerMeter(PowerModel(measured_device), sample_interval_s=10.0)
    return meter.measure_interval(0.0, duration_s, label=label)


def run_fig3(
    load_levels: Optional[Dict[str, float]] = None,
    interval_s: float = INTERVAL_SECONDS,
    payload_bytes: int = 1024,
    seed: int = 42,
) -> EnergyFigure:
    """Reproduce the Fig. 3 interval series."""
    levels = load_levels or DEFAULT_LOAD_LEVELS
    figure = EnergyFigure()
    for label, rate in levels.items():
        if label == "idle (no HLF)":
            figure.intervals.append(_measure_idle_without_hlf(interval_s))
        else:
            figure.intervals.append(
                _measure_load_level(label, rate, interval_s, payload_bytes, seed)
            )
    return figure
