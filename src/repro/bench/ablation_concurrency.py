"""Ablation: in-flight submission depth sweep (futures-based write path).

The unified API's ``submit()`` is non-blocking: multiple endorsed
envelopes stay in flight through the endorsement batcher and the
orderer's block cutter at once.  This bench sweeps the closed loop's
in-flight depth with a fixed payload and reports how throughput and
response time move — depth 1 reproduces a strictly blocking client
(every block is cut by the batch timeout), while deeper pipelines let
blocks fill by message count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.bench.reporting import ResultTable, format_seconds
from repro.bench.runner import RunConfig, RunResult, StoreDataRunner
from repro.core.topology import build_desktop_deployment

DEFAULT_DEPTHS: Sequence[int] = (1, 2, 4, 8, 16)


@dataclass
class ConcurrencyAblation:
    """Results of the in-flight depth sweep."""

    depths: List[int] = field(default_factory=list)
    results: List[RunResult] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Throughput at the deepest pipeline relative to depth 1."""
        if len(self.results) < 2 or self.results[0].throughput_tps <= 0:
            return 1.0
        return self.results[-1].throughput_tps / self.results[0].throughput_tps

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Ablation — in-flight submission depth (64 KiB payloads, desktop setup)",
            columns=["in-flight depth", "throughput (tx/s)", "mean response",
                     "p50 response", "p95 response"],
        )
        for depth, result in zip(self.depths, self.results):
            table.add_row(
                depth,
                round(result.throughput_tps, 2),
                format_seconds(result.mean_response_s),
                format_seconds(result.p50_response_s),
                format_seconds(result.p95_response_s),
            )
        table.add_note(
            f"throughput speedup from keeping {self.depths[-1] if self.depths else '?'} "
            f"submissions in flight vs. 1: {self.speedup:.2f}x"
        )
        return table


def run_concurrency_ablation(
    depths: Sequence[int] = DEFAULT_DEPTHS,
    payload_bytes: int = 64 * 1024,
    requests: int = 30,
    seed: int = 42,
) -> ConcurrencyAblation:
    """Sweep the closed loop's in-flight depth on the desktop setup."""
    ablation = ConcurrencyAblation()
    for depth in depths:
        deployment = build_desktop_deployment(seed=seed)
        runner = StoreDataRunner(deployment)
        result = runner.run(
            RunConfig(
                data_size_bytes=payload_bytes,
                request_count=requests,
                concurrency=depth,
                seed=seed,
            )
        )
        ablation.depths.append(depth)
        ablation.results.append(result)
    return ablation
