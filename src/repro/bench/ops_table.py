"""Per-operator latency table (technical-report style).

The paper's client library exposes ``Init``, ``Post``, ``Get``,
``StoreData``, ``GetData`` and the history/lineage queries; the companion
technical report breaks latency down per operator.  This bench measures
each operator once per setup with a fixed 1 KiB payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.api.protocol import StoreRequest
from repro.bench.reporting import ResultTable, format_seconds
from repro.middleware.metrics import STAGES
from repro.core.topology import (
    HyperProvDeployment,
    build_desktop_deployment,
    build_rpi_deployment,
)
from repro.workloads.payloads import PayloadGenerator


@dataclass
class OperatorLatencies:
    """Mean latency per client operator for one setup."""

    setup: str
    latencies_s: Dict[str, float] = field(default_factory=dict)
    #: Mean write-path latency attributed to each pipeline stage
    #: (``endorse`` / ``order`` / ``commit``), from the metrics middleware.
    stages_s: Dict[str, float] = field(default_factory=dict)


def _measure_setup(deployment: HyperProvDeployment, payload_bytes: int, repeats: int,
                   seed: int) -> OperatorLatencies:
    client = deployment.client
    store = client.as_store()
    generator = PayloadGenerator(size_bytes=payload_bytes, seed=seed, prefix="ops")
    latencies: Dict[str, List[float]] = {
        "post": [], "store_data": [], "get": [], "get_key_history": [],
        "check_hash": [], "get_data": [], "get_dependencies": [],
    }

    items = [generator.next_item() for _ in range(repeats)]

    # Write path: store_data (off-chain + on-chain) measured end to end.
    for item in items:
        start = deployment.engine.now
        post = store.submit(StoreRequest(key=item.key, data=item.data))
        deployment.drain()
        if post.done and post.ok:
            latencies["store_data"].append(post.committed_at - start)

    # Metadata-only post (data already stored elsewhere).
    for index, item in enumerate(items):
        start = deployment.engine.now
        post = store.submit(
            StoreRequest(
                key=f"ops/meta-{index}",
                checksum=item.checksum,
                location=f"file://preexisting/{index}",
                size_bytes=item.size_bytes,
            )
        )
        deployment.drain()
        if post.done and post.ok:
            latencies["post"].append(post.committed_at - start)

    # Read path.
    for item in items:
        latencies["get"].append(store.get(item.key).latency_s)
        latencies["get_key_history"].append(store.history(item.key).latency_s)
        latencies["check_hash"].append(store.verify(item.key, item.data).latency_s)
        latencies["get_dependencies"].append(client.get_dependencies(item.key).latency_s)
        latencies["get_data"].append(client.get_data(item.key).latency_s)

    means = {
        op: (sum(values) / len(values) if values else float("nan"))
        for op, values in latencies.items()
    }
    return OperatorLatencies(
        setup=deployment.spec.name,
        latencies_s=means,
        stages_s=collect_stage_breakdown(client.metrics),
    )


def collect_stage_breakdown(registry) -> Dict[str, float]:
    """Mean endorse/order/commit durations the metrics middleware recorded."""
    breakdown: Dict[str, float] = {}
    for stage, stage_metric in STAGES.items():
        histogram = registry.get_histogram(stage_metric)
        if histogram is not None and histogram.count:
            breakdown[stage] = histogram.mean
    return breakdown


def run_ops_table(payload_bytes: int = 1024, repeats: int = 5, seed: int = 42
                  ) -> List[OperatorLatencies]:
    """Measure the operator latency table on both setups."""
    desktop = _measure_setup(build_desktop_deployment(seed=seed), payload_bytes, repeats, seed)
    rpi = _measure_setup(build_rpi_deployment(seed=seed), payload_bytes, repeats, seed)
    return [desktop, rpi]


def to_table(results: List[OperatorLatencies]) -> ResultTable:
    """Render the operator × setup latency matrix."""
    operators = sorted({op for result in results for op in result.latencies_s})
    table = ResultTable(
        title="Client operator latencies (1 KiB payloads)",
        columns=["operator"] + [result.setup for result in results],
    )
    for operator in operators:
        table.add_row(
            operator,
            *[format_seconds(result.latencies_s.get(operator, float("nan"))) for result in results],
        )
    return table


def stage_table(results: List[OperatorLatencies]) -> ResultTable:
    """Render where write-path time goes: endorse vs. order vs. commit."""
    stages = list(STAGES)
    table = ResultTable(
        title="Write-path latency breakdown by pipeline stage",
        columns=["stage"] + [result.setup for result in results],
    )
    for stage in stages:
        table.add_row(
            stage,
            *[format_seconds(result.stages_s.get(stage, float("nan")))
              for result in results],
        )
    table.add_note(
        "endorse = proposal round trip; order = envelope transfer + queueing; "
        "commit = block cut, delivery, validation and commit notify"
    )
    return table
