"""The StoreData sweeps: Fig. 1, Fig. 2 and five ablations as one table.

Every experiment here has the same shape — for each value on one axis,
build a fresh deployment, run the closed-loop StoreData workload on it and
return one row — so each is a :class:`Sweep` entry in :data:`SWEEPS`
(keyed by the CLI's experiment names) and :func:`run_sweep` is the one
loop.  ``fig1`` / ``fig2`` sweep data size on the desktop and RPi
testbeds; ``ablation-fastfabric`` is parallel endorsement-signature
validation (Gorenflo et al., ICBC '19) on the RPi peers, where validation
costs most relative to the hardware; ``ablation-sharding`` models the
orderer's per-envelope intake cost so one orderer is the bottleneck the
paper's testbeds have.  What each sweep is held to is a row of
:data:`repro.bench.experiments.PAPER_CLAIMS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.reporting import format_bytes, format_seconds
from repro.bench.runner import RunConfig, StoreDataRunner
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
#: Short batch timeout of the shard sweep and the fairness table, so a
#: final partial block does not park the makespan on the default 2 s
#: timeout (steady-state measurement).
BENCH_BATCH_TIMEOUT_S = 0.25

#: A measured row: raw values keyed by name.
Row = Dict[str, Any]

#: Every cell a sweep table can show besides its axis column: header →
#: (row key, formatter).
COLUMNS: Dict[str, Tuple[str, Callable[[Any], object]]] = {
    "throughput (tx/s)": ("throughput_tps", partial(round, ndigits=2)),
    "mean response": ("mean_response_s", format_seconds),
    "p50 response": ("p50_response_s", format_seconds),
    "p95 response": ("p95_response_s", format_seconds),
    "storage share": ("storage_share", lambda share: f"{share * 100:.0f}%"),
    "committed": ("committed", str),
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
    payload_bytes: int = 64 * KIB
    build: Callable[..., HyperProvDeployment] = build_desktop_deployment
    #: Renders an axis value into its first-column cell.
    cell: Callable[[Any], object] = str
    #: Table note; ``{last}`` is the last axis value, ``{speedup}`` the
    #: last point's throughput over the first's.
    note: Optional[str] = None


def run_sweep(
    sweep: Sweep,
    requests: int,
    seed: int = 42,
    values: Optional[Sequence[Any]] = None,
    **run_overrides: Any,
) -> List[Row]:
    """Measure every point of ``sweep``, each on a fresh deployment.

    One row per axis value, in axis order; the value is under ``"value"``.
    Points share nothing, so a value measured alone equals the same value
    inside the full sweep.  ``run_overrides`` are :class:`RunConfig` fields
    (``concurrency``, ``pipeline``) set on every point over the sweep's own.
    """
    rows = []
    for value in sweep.values if values is None else values:
        deployment_kwargs, run_kwargs = sweep.point(value, requests)
        deployment = sweep.build(seed=seed, **deployment_kwargs)
        config = RunConfig(**{
            "data_size_bytes": sweep.payload_bytes,
            "request_count": requests,
            "seed": seed,
            **run_kwargs,
            **run_overrides,
        })
        rows.append({"value": value, "requests": config.request_count,
                     **StoreDataRunner(deployment).run(config)})
    return rows


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
        # Each deployment needs enough requests to reach steady state past
        # the priming and final-block tail: 12x the requested load.
        count = max(requests, 4) * 12
        return {
            "shards": shards,
            "scheduler": scheduler,
            "orderer_intake_interval_s": SHARD_INTAKE_INTERVAL_S,
            "batch_config": BatchConfig(batch_timeout_s=BENCH_BATCH_TIMEOUT_S),
        }, {
            "request_count": count,
            "concurrency": min(64, count),
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
    cell=format_bytes,
)

SWEEPS: Dict[str, Sweep] = {
    "fig1": _FIG1,
    "fig2": replace(
        _FIG1,
        title="Fig. 2 — RPi: throughput and response time vs data size",
        build=build_rpi_deployment,
    ),
    "ablation-batch": Sweep(
        title="Ablation — orderer batch size (64 KiB payloads, desktop setup)",
        axis="max messages per block",
        values=(1, 10, 50, 100),
        point=_batch_point,
        columns=("throughput (tx/s)", "mean response", "p95 response", "committed"),
    ),
    "ablation-concurrency": Sweep(
        title="Ablation — in-flight submission depth (64 KiB payloads, desktop setup)",
        axis="in-flight depth",
        values=(1, 2, 4, 8, 16),
        point=lambda depth, requests: ({}, {"concurrency": depth}),
        columns=("throughput (tx/s)", "mean response", "p50 response", "p95 response"),
        note="throughput speedup from keeping {last} submissions in flight "
             "vs. 1: {speedup:.2f}x",
    ),
    "ablation-consensus": Sweep(
        title="Ablation — Solo vs Raft ordering (64 KiB payloads, desktop setup)",
        axis="ordering",
        values=("solo", "raft"),
        point=lambda ordering, requests: ({"ordering": ordering}, {}),
        columns=("throughput (tx/s)", "mean response", "committed"),
        build=_build_ordering,
    ),
    "ablation-fastfabric": Sweep(
        title="Ablation — FastFabric-style parallel validation (RPi setup, 1 KiB payloads)",
        axis="validation",
        values=("sequential", "parallel"),
        point=lambda mode, requests: ({"parallel_validation": mode == "parallel"}, {}),
        columns=("throughput (tx/s)", "mean response", "p95 response"),
        payload_bytes=KIB,
        build=build_rpi_deployment,
        note="throughput speedup from parallel validation: {speedup:.2f}x",
    ),
    "ablation-sharding": shard_sweep(),
}
