"""Ablation: tenant-aware fair sharing at a backlogged orderer.

The second table of ``ablation-sharding`` (the shard-count throughput
sweep is :func:`repro.bench.sweeps.shard_sweep`): does fair-share
scheduling protect light tenants?  A heavy tenant submits ``skew``× the
light tenant's load as a burst into one shard's backlogged orderer.
Under FIFO intake the light tenant's p95 commit latency degrades by the
full backlog; under the per-tenant round-robin ``fair-share`` scheduler
the light tenant keeps a bounded factor of its solo latency.
The table reports both against the light tenant's solo run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.bench.reporting import ResultTable, format_seconds
from repro.consensus.batching import BatchConfig
from repro.core.topology import build_desktop_deployment
from repro.api.service import HyperProvService
from repro.workloads.scenarios import SkewedTenantWorkload, TenantLoadResult

#: Short batch timeout so a final partial block does not park the
#: makespan on the default 2 s timeout (steady-state measurement).
BENCH_BATCH_TIMEOUT_S = 0.25


@dataclass
class FairnessComparison:
    """Light-tenant latency under 10x skew: FIFO vs fair-share intake."""

    skew: int
    solo: Optional[TenantLoadResult] = None
    by_scheduler: Dict[str, Dict[str, TenantLoadResult]] = field(default_factory=dict)

    def slowdown(self, scheduler: str) -> float:
        """Light tenant's p95 under load relative to its solo p95."""
        if self.solo is None or not self.solo.response_times_s:
            return float("nan")
        loaded = self.by_scheduler.get(scheduler, {}).get("light")
        if loaded is None or not loaded.response_times_s:
            return float("nan")
        return loaded.p95_response_s / self.solo.p95_response_s

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title=(
                f"Ablation — tenant isolation under {self.skew}x skew "
                "(burst-loaded orderer, light tenant vs heavy tenant)"
            ),
            columns=["scheduler", "light p95", "light slowdown vs solo",
                     "heavy p95", "light committed"],
        )
        if self.solo is not None:
            table.add_row(
                "(light solo)",
                format_seconds(self.solo.p95_response_s),
                "1.00x",
                "-",
                self.solo.committed,
            )
        for scheduler, tenants in self.by_scheduler.items():
            light = tenants.get("light")
            heavy = tenants.get("heavy")
            table.add_row(
                scheduler,
                format_seconds(light.p95_response_s) if light else "-",
                f"{self.slowdown(scheduler):.2f}x",
                format_seconds(heavy.p95_response_s) if heavy else "-",
                light.committed if light else 0,
            )
        table.add_note(
            "fair-share = round robin over per-tenant intake queues; FIFO "
            "serves the heavy tenant's backlog first"
        )
        return table


def run_fairness_comparison(
    light_requests: int = 10,
    skew: int = 10,
    intake_interval_s: float = 0.01,
    seed: int = 42,
) -> FairnessComparison:
    """Compare FIFO and fair-share intake under heavy-tenant skew.

    The heavy tenant submits its whole load as a near-burst (1 ms apart)
    while the light tenant trickles one request every 50 ms, so a backlog
    forms at the orderer and the intake policy decides who waits.
    """
    comparison = FairnessComparison(skew=skew)

    def build(scheduler: str) -> HyperProvService:
        deployment = build_desktop_deployment(
            seed=seed,
            scheduler=scheduler,
            orderer_intake_interval_s=intake_interval_s,
            batch_config=BatchConfig(batch_timeout_s=BENCH_BATCH_TIMEOUT_S),
        )
        return HyperProvService(deployment)

    def workload(service: HyperProvService) -> SkewedTenantWorkload:
        return SkewedTenantWorkload(
            service,
            light_requests=light_requests,
            skew=skew,
            light_interval_s=0.05,
            heavy_interval_s=0.001,
        )

    comparison.solo = workload(build("fifo")).run(only_light=True)["light"]
    for scheduler in ("fifo", "fair-share"):
        comparison.by_scheduler[scheduler] = workload(build(scheduler)).run()
    return comparison
