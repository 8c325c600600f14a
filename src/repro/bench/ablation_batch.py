"""Ablation: orderer batch size (block cutting) sweep.

DESIGN.md calls out block cutting as one of the knobs that governs the
latency/throughput trade-off; this bench sweeps ``MaxMessageCount`` with a
fixed payload and reports how throughput and response time move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.bench.reporting import ResultTable, format_seconds
from repro.bench.runner import RunConfig, RunResult, StoreDataRunner
from repro.consensus.batching import BatchConfig
from repro.core.topology import build_desktop_deployment

DEFAULT_BATCH_SIZES: Sequence[int] = (1, 10, 50, 100)


@dataclass
class BatchAblation:
    """Results of the batch-size sweep."""

    batch_sizes: List[int] = field(default_factory=list)
    results: List[RunResult] = field(default_factory=list)

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Ablation — orderer batch size (64 KiB payloads, desktop setup)",
            columns=["max messages per block", "throughput (tx/s)", "mean response",
                     "p95 response"],
        )
        for batch_size, result in zip(self.batch_sizes, self.results):
            table.add_row(
                batch_size,
                round(result.throughput_tps, 2),
                format_seconds(result.mean_response_s),
                format_seconds(result.p95_response_s),
            )
        return table


def run_batch_ablation(
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    payload_bytes: int = 64 * 1024,
    requests: int = 40,
    batch_timeout_s: float = 2.0,
    seed: int = 42,
) -> BatchAblation:
    """Sweep ``MaxMessageCount`` and measure the StoreData workload."""
    ablation = BatchAblation()
    for batch_size in batch_sizes:
        config = BatchConfig(
            max_message_count=batch_size,
            batch_timeout_s=batch_timeout_s,
            preferred_max_bytes=16 * 1024 * 1024,
        )
        deployment = build_desktop_deployment(batch_config=config, seed=seed)
        runner = StoreDataRunner(deployment)
        # Keep more requests outstanding than the block can hold so every
        # batch size is measured at saturation (otherwise large blocks are
        # only ever cut by the timeout and the sweep measures the timeout).
        concurrency = max(16, batch_size + 2)
        result = runner.run(
            RunConfig(
                data_size_bytes=payload_bytes,
                request_count=requests,
                concurrency=concurrency,
                seed=seed,
            )
        )
        ablation.batch_sizes.append(batch_size)
        ablation.results.append(result)
    return ablation
