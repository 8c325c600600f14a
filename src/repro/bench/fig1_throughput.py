"""Fig. 1 — throughput and response times vs data size on the desktop setup.

The paper: "Fig. 1 shows how increasing the size of data items impacts
both throughput and response times, when off-chain storage is involved for
desktop machines which incurs the overhead of data transfer and checksum
calculation."  The expected shape is monotonically decreasing throughput
and increasing response time as items grow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.bench.reporting import ResultTable, format_bytes, format_seconds
from repro.bench.runner import RunConfig, RunResult, StoreDataRunner
from repro.consensus.batching import BatchConfig
from repro.core.topology import build_desktop_deployment
from repro.middleware.config import PipelineConfig

#: Data item sizes swept by the figure (1 KiB … 4 MiB).
DEFAULT_SIZES: Sequence[int] = (
    1 * 1024,
    16 * 1024,
    64 * 1024,
    256 * 1024,
    1024 * 1024,
    4 * 1024 * 1024,
)


@dataclass
class FigureSeries:
    """One measured series: size → (throughput, response time)."""

    setup: str
    results: List[RunResult] = field(default_factory=list)

    def sizes(self) -> List[int]:
        return [r.config.data_size_bytes for r in self.results]

    def throughputs(self) -> List[float]:
        return [r.throughput_tps for r in self.results]

    def response_times(self) -> List[float]:
        return [r.mean_response_s for r in self.results]

    def to_table(self, title: str) -> ResultTable:
        table = ResultTable(
            title=title,
            columns=[
                "data size",
                "throughput (tx/s)",
                "mean response",
                "p95 response",
                "storage share",
                "committed",
            ],
        )
        for result in self.results:
            storage_share = (
                result.mean_storage_s / result.mean_response_s
                if result.mean_response_s and result.mean_response_s == result.mean_response_s
                else 0.0
            )
            table.add_row(
                format_bytes(result.config.data_size_bytes),
                round(result.throughput_tps, 2),
                format_seconds(result.mean_response_s),
                format_seconds(result.p95_response_s),
                f"{storage_share * 100:.0f}%",
                result.committed,
            )
        return table


def run_fig1(
    sizes: Sequence[int] = DEFAULT_SIZES,
    requests_per_size: int = 30,
    batch_config: Optional[BatchConfig] = None,
    seed: int = 42,
    pipeline: Optional[PipelineConfig] = None,
    concurrency: Optional[int] = None,
) -> FigureSeries:
    """Reproduce Fig. 1 on the simulated desktop testbed.

    A fresh deployment is built per data size so runs are independent
    (matching how the paper reports one measurement series per size).
    ``pipeline`` optionally swaps the client's middleware configuration for
    ablations (cache, retry, endorsement batching); ``concurrency``
    overrides the closed loop's in-flight depth.
    """
    series = FigureSeries(setup="desktop")
    for size in sizes:
        deployment = build_desktop_deployment(batch_config=batch_config, seed=seed)
        runner = StoreDataRunner(deployment)
        config = RunConfig(
            data_size_bytes=size,
            request_count=requests_per_size,
            seed=seed,
            pipeline=pipeline,
        )
        if concurrency is not None:
            config.concurrency = concurrency
        series.results.append(runner.run(config))
    return series
