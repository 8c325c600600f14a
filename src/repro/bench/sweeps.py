"""The StoreData sweeps: Fig. 1, Fig. 2 and five ablations as one table.

Every experiment here has the same shape — for each value on one axis,
build a fresh deployment, run the closed-loop StoreData workload on it and
print one table row — so each is a :class:`Sweep` entry in :data:`SWEEPS`
(keyed by the CLI's experiment names) and :func:`run_sweep` is the one
loop.  What the paper and the ablations expect of the rows:

* ``fig1`` / ``fig2`` — "increasing the size of data items impacts both
  throughput and response times, when off-chain storage is involved":
  throughput falls and response time rises with size, and the RPi setup
  shows the "similar trend ... however absolute performance for RPi is
  lower than desktop machines as expected".
* ``ablation-batch`` — ``MaxMessageCount`` at saturation: flat throughput,
  response time growing with the block size.
* ``ablation-concurrency`` — depth 1 is a strictly blocking client (every
  block is cut by the batch timeout); deeper pipelines fill blocks by count.
* ``ablation-consensus`` — the paper's Solo orderer vs HLF v1.4.1's Raft.
* ``ablation-fastfabric`` — parallel endorsement-signature validation
  (Gorenflo et al., ICBC '19) on the RPi peers, where validation is the
  most expensive relative to the hardware.
* ``ablation-sharding`` — metadata-only posts (no client-side storage
  cost) against 1 → N channel shards, each ordered by its own machine,
  with the orderer's per-envelope intake cost modelled explicitly so one
  orderer is the bottleneck the paper's testbeds have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.ablation_sharding import BENCH_BATCH_TIMEOUT_S
from repro.bench.reporting import ResultTable, format_bytes, format_seconds
from repro.bench.runner import RunConfig, RunResult, StoreDataRunner
from repro.consensus.batching import BatchConfig
from repro.core.topology import (
    HyperProvDeployment,
    build_desktop_deployment,
    build_rpi_deployment,
)
from repro.middleware.config import PipelineConfig

KIB = 1024
#: Batch timeout of the block-size sweep; no point may be cut by it.
BATCH_SWEEP_TIMEOUT_S = 2.0
#: Modelled per-envelope orderer intake cost of the shard sweep.
SHARD_INTAKE_INTERVAL_S = 0.04


def _storage_share(result: RunResult) -> str:
    response = result.mean_response_s
    share = result.mean_storage_s / response if response and not math.isnan(response) else 0.0
    return f"{share * 100:.0f}%"


#: Every cell a sweep table can show besides its axis column.
COLUMNS: Dict[str, Callable[[RunResult], object]] = {
    "throughput (tx/s)": lambda r: round(r.throughput_tps, 2),
    "mean response": lambda r: format_seconds(r.mean_response_s),
    "p50 response": lambda r: format_seconds(r.p50_response_s),
    "p95 response": lambda r: format_seconds(r.p95_response_s),
    "storage share": _storage_share,
    "committed": lambda r: r.committed,
}


@dataclass(frozen=True)
class Sweep:
    """One experiment: an axis, what each value changes, and its table."""

    title: str
    #: Header of the first column and the values swept along it.
    axis: str
    values: Sequence[Any]
    #: ``(value, requests) -> (deployment kwargs, RunConfig kwargs)``.
    point: Callable[[Any, int], Tuple[Dict[str, Any], Dict[str, Any]]]
    #: Keys of :data:`COLUMNS`, in table order.
    columns: Sequence[str]
    #: Requests per point when the caller names no count.
    requests: int
    payload_bytes: int = 64 * KIB
    build: Callable[..., HyperProvDeployment] = build_desktop_deployment
    #: Renders an axis value into its first-column cell.
    cell: Callable[[Any], object] = lambda value: value
    #: Table note; ``{last}`` is the last axis value, ``{speedup}`` the
    #: last point's throughput relative to the first's.
    note: Optional[str] = None


@dataclass
class SweepResult:
    """The measured points of one sweep, in axis order."""

    sweep: Sweep
    values: List[Any]
    results: List[RunResult]

    @property
    def speedup(self) -> float:
        """Throughput at the last axis value relative to the first."""
        first = self.results[0].throughput_tps
        return self.results[-1].throughput_tps / first if first > 0 else float("nan")

    def to_table(self) -> ResultTable:
        sweep = self.sweep
        table = ResultTable(title=sweep.title, columns=[sweep.axis, *sweep.columns])
        for value, result in zip(self.values, self.results):
            table.add_row(
                sweep.cell(value), *(COLUMNS[column](result) for column in sweep.columns)
            )
        if sweep.note:
            table.add_note(sweep.note.format(last=self.values[-1], speedup=self.speedup))
        return table


def run_sweep(
    sweep: Sweep,
    requests: Optional[int] = None,
    values: Optional[Sequence[Any]] = None,
    seed: int = 42,
    **run_overrides: Any,
) -> SweepResult:
    """Measure every point of ``sweep``, each on a fresh deployment.

    Points share nothing, so a value measured alone equals the same value
    inside the full sweep.  ``run_overrides`` are :class:`RunConfig` fields
    (``concurrency``, ``pipeline``) set on every point over the sweep's own.
    """
    requests = sweep.requests if requests is None else requests
    values = list(sweep.values if values is None else values)
    results = []
    for value in values:
        deployment_kwargs, run_kwargs = sweep.point(value, requests)
        deployment = sweep.build(seed=seed, **deployment_kwargs)
        config = RunConfig(**{
            "data_size_bytes": sweep.payload_bytes,
            "request_count": requests,
            "seed": seed,
            **run_kwargs,
            **run_overrides,
        })
        results.append(StoreDataRunner(deployment).run(config))
    return SweepResult(sweep, values, results)


def _batch_point(size: int, requests: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    batch = BatchConfig(
        max_message_count=size,
        batch_timeout_s=BATCH_SWEEP_TIMEOUT_S,
        preferred_max_bytes=16 * KIB * KIB,
    )
    # More requests outstanding than a block holds, and a whole number of
    # full blocks (at least two): otherwise large blocks are only ever cut
    # by the timeout and the sweep measures the timeout.
    return {"batch_config": batch}, {
        "concurrency": max(16, size + 2),
        "request_count": max(2, math.ceil(requests / size)) * size,
    }


def _build_ordering(ordering: str, seed: int) -> HyperProvDeployment:
    deployment = build_desktop_deployment(ordering=ordering, seed=seed)
    if ordering == "raft":
        # Give the cluster time to elect a leader before load arrives.
        deployment.engine.run(until=1.0)
    return deployment


def shard_sweep(scheduler: str = "fifo") -> Sweep:
    """The shard-count sweep under ``scheduler`` orderer intake."""

    def point(shards: int, requests: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        return {
            "shards": shards,
            "scheduler": scheduler,
            "orderer_intake_interval_s": SHARD_INTAKE_INTERVAL_S,
            "batch_config": BatchConfig(batch_timeout_s=BENCH_BATCH_TIMEOUT_S),
        }, {
            "concurrency": min(64, requests),
            "metadata_only": True,
            "pipeline": PipelineConfig(shards=shards, scheduler=scheduler),
        }

    return Sweep(
        title=(
            "Ablation — channel shards vs write throughput "
            f"(metadata posts, {scheduler} intake, "
            f"{SHARD_INTAKE_INTERVAL_S * 1000:.0f} ms/envelope orderer cost)"
        ),
        axis="shards",
        values=(1, 2, 4),
        point=point,
        columns=("throughput (tx/s)", "mean response", "p50 response",
                 "p95 response", "committed"),
        requests=240,
        payload_bytes=256,
        note=(
            "throughput scaling from 1 → {last} shards: {speedup:.2f}x (each "
            "shard's channel is ordered by its own machine; peers host every "
            "channel, so peer CPU eventually saturates)"
        ),
    )


_FIG1 = Sweep(
    title="Fig. 1 — desktop: throughput and response time vs data size",
    axis="data size",
    values=(1 * KIB, 16 * KIB, 64 * KIB, 256 * KIB, 1024 * KIB, 4096 * KIB),
    point=lambda size, requests: ({}, {"data_size_bytes": size}),
    columns=("throughput (tx/s)", "mean response", "p95 response",
             "storage share", "committed"),
    requests=30,
    cell=format_bytes,
)

SWEEPS: Dict[str, Sweep] = {
    "fig1": _FIG1,
    "fig2": replace(
        _FIG1,
        title="Fig. 2 — RPi: throughput and response time vs data size",
        build=build_rpi_deployment,
        requests=20,
    ),
    "ablation-batch": Sweep(
        title="Ablation — orderer batch size (64 KiB payloads, desktop setup)",
        axis="max messages per block",
        values=(1, 10, 50, 100),
        point=_batch_point,
        columns=("throughput (tx/s)", "mean response", "p95 response", "committed"),
        requests=40,
    ),
    "ablation-concurrency": Sweep(
        title="Ablation — in-flight submission depth (64 KiB payloads, desktop setup)",
        axis="in-flight depth",
        values=(1, 2, 4, 8, 16),
        point=lambda depth, requests: ({}, {"concurrency": depth}),
        columns=("throughput (tx/s)", "mean response", "p50 response", "p95 response"),
        requests=30,
        note="throughput speedup from keeping {last} submissions in flight "
             "vs. 1: {speedup:.2f}x",
    ),
    "ablation-consensus": Sweep(
        title="Ablation — Solo vs Raft ordering (64 KiB payloads, desktop setup)",
        axis="ordering",
        values=("solo", "raft"),
        point=lambda ordering, requests: ({"ordering": ordering}, {}),
        columns=("throughput (tx/s)", "mean response", "committed"),
        requests=25,
        build=_build_ordering,
    ),
    "ablation-fastfabric": Sweep(
        title="Ablation — FastFabric-style parallel validation (RPi setup, 1 KiB payloads)",
        axis="validation",
        values=("sequential", "parallel"),
        point=lambda mode, requests: ({"parallel_validation": mode == "parallel"}, {}),
        columns=("throughput (tx/s)", "mean response", "p95 response"),
        requests=40,
        payload_bytes=KIB,
        build=build_rpi_deployment,
        note="throughput speedup from parallel validation: {speedup:.2f}x",
    ),
    "ablation-sharding": shard_sweep(),
}
