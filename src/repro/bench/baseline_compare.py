"""Baseline comparison: HyperProv vs ProvChain-style PoW vs central DB.

Reproduces the paper's qualitative claim that a permissioned blockchain
"has much less resource requirements compared to public blockchains"
while still providing tamper evidence that a centralized database lacks.
The bench stores the same 1 KiB provenance workload through all three
systems on RPi-class hardware and reports throughput, mean latency and
mean power of the recording device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.api.protocol import StoreRequest
from repro.baselines.centraldb import CentralProvenanceDatabase
from repro.baselines.provchain import PowProvenanceChain
from repro.bench.reporting import ResultTable, format_seconds
from repro.bench.runner import RunConfig, StoreDataRunner
from repro.core.topology import build_rpi_deployment
from repro.devices.model import DeviceModel
from repro.devices.profiles import RASPBERRY_PI_3B_PLUS, XEON_E5_1603
from repro.energy.power import PowerModel
from repro.simulation.randomness import DeterministicRandom
from repro.workloads.payloads import PayloadGenerator


@dataclass
class SystemComparison:
    """Measured behaviour of one provenance system under the same workload."""

    system: str
    throughput_tps: float
    mean_latency_s: float
    mean_power_w: float
    tamper_evident: bool


@dataclass
class BaselineReport:
    """All systems side by side."""

    entries: List[SystemComparison] = field(default_factory=list)

    def entry(self, system: str) -> SystemComparison:
        for item in self.entries:
            if item.system == system:
                return item
        raise KeyError(system)

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Baseline comparison — 1 KiB provenance records on RPi-class hardware",
            columns=["system", "throughput (tx/s)", "mean latency", "mean power (W)",
                     "tamper evident"],
        )
        for item in self.entries:
            table.add_row(
                item.system,
                round(item.throughput_tps, 2),
                format_seconds(item.mean_latency_s),
                round(item.mean_power_w, 2),
                "yes" if item.tamper_evident else "no",
            )
        return table


def _measure_hyperprov(requests: int, payload_bytes: int, seed: int) -> SystemComparison:
    deployment = build_rpi_deployment(seed=seed)
    runner = StoreDataRunner(deployment)
    result = runner.run(RunConfig(data_size_bytes=payload_bytes, request_count=requests, seed=seed))
    window = (0.0, max(1.0, deployment.engine.now))
    power = PowerModel(deployment.client_device).power_over(window).watts
    return SystemComparison(
        system="hyperprov",
        throughput_tps=result.throughput_tps,
        mean_latency_s=result.mean_response_s,
        mean_power_w=power,
        tamper_evident=True,
    )


def _measure_provchain(requests: int, payload_bytes: int, seed: int,
                       difficulty_bits: int) -> SystemComparison:
    device = DeviceModel("rpi-miner", RASPBERRY_PI_3B_PLUS, rng=DeterministicRandom(seed))
    chain = PowProvenanceChain(device, difficulty_bits=difficulty_bits,
                               rng=DeterministicRandom(seed))
    store = chain.as_store()
    generator = PayloadGenerator(size_bytes=payload_bytes, seed=seed, prefix="pow")
    cursor = 0.0
    latencies = []
    for item in generator.items(requests):
        outcome = store.submit(StoreRequest(key=item.key, data=item.data), at_time=cursor)
        latencies.append(outcome.latency_s)
        cursor = outcome.committed_at
    makespan = max(cursor, 1e-9)
    power = PowerModel(device).power_over((0.0, makespan)).watts
    return SystemComparison(
        system="provchain-pow",
        throughput_tps=requests / makespan,
        mean_latency_s=sum(latencies) / len(latencies),
        mean_power_w=power,
        tamper_evident=True,
    )


def _measure_central_db(requests: int, payload_bytes: int, seed: int) -> SystemComparison:
    server = DeviceModel("db-server", XEON_E5_1603, rng=DeterministicRandom(seed))
    database = CentralProvenanceDatabase(server_device=server)
    store = database.as_store()
    generator = PayloadGenerator(size_bytes=payload_bytes, seed=seed, prefix="central")
    cursor = 0.0
    latencies = []
    for item in generator.items(requests):
        outcome = store.submit(StoreRequest(key=item.key, data=item.data), at_time=cursor)
        latencies.append(outcome.latency_s)
        cursor = outcome.committed_at
    makespan = max(cursor, 1e-9)
    power = PowerModel(server).power_over((0.0, makespan)).watts
    return SystemComparison(
        system="central-db",
        throughput_tps=requests / makespan,
        mean_latency_s=sum(latencies) / len(latencies),
        mean_power_w=power,
        tamper_evident=False,
    )


def run_baseline_comparison(
    requests: int = 25,
    payload_bytes: int = 1024,
    pow_difficulty_bits: int = 22,
    seed: int = 42,
) -> BaselineReport:
    """Store the same workload through HyperProv and both baselines."""
    report = BaselineReport()
    report.entries.append(_measure_hyperprov(requests, payload_bytes, seed))
    report.entries.append(_measure_provchain(requests, payload_bytes, seed, pow_difficulty_bits))
    report.entries.append(_measure_central_db(requests, payload_bytes, seed))
    return report
