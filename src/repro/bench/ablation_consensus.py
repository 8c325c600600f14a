"""Ablation: Solo vs Raft ordering service.

The paper's testbeds run the Solo orderer; HLF v1.4.1 introduced Raft.
This bench runs the same StoreData workload under both ordering services
on the desktop deployment and reports the throughput/latency cost of
crash-fault-tolerant ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.bench.reporting import ResultTable, format_seconds
from repro.bench.runner import RunConfig, RunResult, StoreDataRunner
from repro.core.topology import build_desktop_deployment


@dataclass
class ConsensusAblation:
    """Results per ordering mode."""

    results: Dict[str, RunResult] = field(default_factory=dict)

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Ablation — Solo vs Raft ordering (64 KiB payloads, desktop setup)",
            columns=["ordering", "throughput (tx/s)", "mean response", "committed"],
        )
        for mode, result in self.results.items():
            table.add_row(
                mode,
                round(result.throughput_tps, 2),
                format_seconds(result.mean_response_s),
                result.committed,
            )
        return table


def run_consensus_ablation(
    payload_bytes: int = 64 * 1024,
    requests: int = 25,
    seed: int = 42,
) -> ConsensusAblation:
    """Measure the StoreData workload under Solo and Raft ordering."""
    ablation = ConsensusAblation()
    for mode in ("solo", "raft"):
        deployment = build_desktop_deployment(ordering=mode, seed=seed)
        if mode == "raft":
            # Give the cluster time to elect a leader before load arrives.
            deployment.engine.run(until=1.0)
        runner = StoreDataRunner(deployment)
        result = runner.run(
            RunConfig(data_size_bytes=payload_bytes, request_count=requests, seed=seed)
        )
        ablation.results[mode] = result
    return ablation
