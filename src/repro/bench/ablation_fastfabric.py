"""Ablation: FastFabric-style parallel block validation.

The paper cites FastFabric (Gorenflo et al., ICBC '19), which raises HLF
throughput by, among other things, parallelizing endorsement-signature
validation on the committing peers.  This ablation toggles the equivalent
option in the peer model on the Raspberry Pi deployment — where validation
is the most expensive relative to the hardware — and reports the gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.bench.reporting import ResultTable, format_seconds
from repro.bench.runner import RunConfig, RunResult, StoreDataRunner
from repro.core.topology import build_rpi_deployment


@dataclass
class FastFabricAblation:
    """Results with sequential vs parallel validation."""

    results: Dict[str, RunResult] = field(default_factory=dict)

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Ablation — FastFabric-style parallel validation (RPi setup, 1 KiB payloads)",
            columns=["validation", "throughput (tx/s)", "mean response", "p95 response"],
        )
        for mode, result in self.results.items():
            table.add_row(
                mode,
                round(result.throughput_tps, 2),
                format_seconds(result.mean_response_s),
                format_seconds(result.p95_response_s),
            )
        return table

    @property
    def speedup(self) -> float:
        """Throughput of parallel validation relative to sequential."""
        sequential = self.results["sequential"].throughput_tps
        parallel = self.results["parallel"].throughput_tps
        return parallel / sequential if sequential else float("nan")


def run_fastfabric_ablation(
    payload_bytes: int = 1024,
    requests: int = 40,
    seed: int = 42,
) -> FastFabricAblation:
    """Measure the StoreData workload with and without parallel validation."""
    ablation = FastFabricAblation()
    for label, parallel in (("sequential", False), ("parallel", True)):
        deployment = build_rpi_deployment(parallel_validation=parallel, seed=seed)
        runner = StoreDataRunner(deployment)
        result = runner.run(
            RunConfig(data_size_bytes=payload_bytes, request_count=requests, seed=seed)
        )
        ablation.results[label] = result
    return ablation
