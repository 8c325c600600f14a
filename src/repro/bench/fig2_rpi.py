"""Fig. 2 — throughput and response times vs data size on the RPi setup.

Same sweep as Fig. 1 on the Raspberry Pi 3B+ deployment.  The paper notes
"similar trend ... though greater variation, however absolute performance
for RPi is lower than desktop machines as expected owing to the limited
hardware capacity" — the bench asserts exactly that shape.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bench.fig1_throughput import DEFAULT_SIZES, FigureSeries
from repro.bench.runner import RunConfig, StoreDataRunner
from repro.consensus.batching import BatchConfig
from repro.core.topology import build_rpi_deployment
from repro.middleware.config import PipelineConfig

#: The RPi sweep uses the same sizes; large items simply take longer.
RPI_SIZES: Sequence[int] = DEFAULT_SIZES


def run_fig2(
    sizes: Sequence[int] = RPI_SIZES,
    requests_per_size: int = 20,
    batch_config: Optional[BatchConfig] = None,
    seed: int = 42,
    pipeline: Optional[PipelineConfig] = None,
    concurrency: Optional[int] = None,
) -> FigureSeries:
    """Reproduce Fig. 2 on the simulated Raspberry Pi testbed."""
    series = FigureSeries(setup="rpi")
    for size in sizes:
        deployment = build_rpi_deployment(batch_config=batch_config, seed=seed)
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
