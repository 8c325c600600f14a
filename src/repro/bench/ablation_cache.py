"""Read-cache ablation: repeated ``get`` latency with the cache on vs off.

IoT provenance workloads are read-heavy once data is recorded (dashboards
re-resolving the same keys, lineage walks touching hot ancestors), so the
pipeline's read-cache middleware should collapse repeated reads to a local
lookup.  This ablation measures exactly that: store a working set, then
issue ``rounds`` passes of ``get`` over it with two declaratively
configured pipelines — ``PipelineConfig(cache=False)`` (the paper's
behaviour) and ``PipelineConfig(cache=True)`` — and reports mean latency
per read plus hit statistics.  A commit against one key between rounds
verifies invalidation keeps the cache coherent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.api.protocol import StoreRequest
from repro.bench.reporting import ResultTable, format_seconds
from repro.core.topology import build_desktop_deployment
from repro.middleware.config import PipelineConfig
from repro.workloads.payloads import PayloadGenerator


@dataclass
class CacheVariant:
    """Measured read latencies for one pipeline configuration."""

    label: str
    config: PipelineConfig
    latencies_s: List[float] = field(default_factory=list)
    cache_hits: float = 0.0
    cache_misses: float = 0.0

    @property
    def mean_latency_s(self) -> float:
        if not self.latencies_s:
            return float("nan")
        return sum(self.latencies_s) / len(self.latencies_s)


@dataclass
class CacheAblation:
    """Cache-off vs cache-on comparison on the same stored working set."""

    variants: List[CacheVariant] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Mean repeated-get latency ratio, cache-off over cache-on."""
        by_label: Dict[str, CacheVariant] = {v.label: v for v in self.variants}
        off = by_label.get("cache-off")
        on = by_label.get("cache-on")
        if off is None or on is None or not on.mean_latency_s:
            return 1.0
        return off.mean_latency_s / on.mean_latency_s

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Read-cache ablation — repeated get() over a hot working set",
            columns=["pipeline", "reads", "mean get", "cache hits", "cache misses"],
        )
        for variant in self.variants:
            table.add_row(
                variant.label,
                len(variant.latencies_s),
                format_seconds(variant.mean_latency_s),
                int(variant.cache_hits),
                int(variant.cache_misses),
            )
        table.add_note(f"repeated-read speedup from the cache: {self.speedup:.1f}x")
        return table


def run_cache_ablation(
    keys: int = 8,
    rounds: int = 5,
    payload_bytes: int = 1024,
    seed: int = 42,
) -> CacheAblation:
    """Measure repeated-``get`` latency with the read cache off and on."""
    ablation = CacheAblation()
    variants = (
        CacheVariant(label="cache-off", config=PipelineConfig(cache=False)),
        CacheVariant(label="cache-on", config=PipelineConfig(cache=True)),
    )
    for variant in variants:
        deployment = build_desktop_deployment(seed=seed)
        client = deployment.client
        client.configure_pipeline(variant.config)
        store = client.as_store()
        generator = PayloadGenerator(size_bytes=payload_bytes, seed=seed, prefix="cache")
        items = [generator.next_item() for _ in range(keys)]
        for item in items:
            store.submit(StoreRequest(key=item.key, data=item.data))
            deployment.drain()
        for round_index in range(rounds):
            for item in items:
                variant.latencies_s.append(store.get(item.key).latency_s)
            if round_index == rounds - 2 and items:
                # Re-record one key between the last two rounds so the
                # commit-event invalidation path is part of the measurement.
                store.submit(StoreRequest(key=items[0].key, data=items[0].data + b"!"))
                deployment.drain()
        hits = client.metrics.get_counter("cache.hits")
        misses = client.metrics.get_counter("cache.misses")
        variant.cache_hits = hits.value if hits else 0.0
        variant.cache_misses = misses.value if misses else 0.0
        ablation.variants.append(variant)
    return ablation
