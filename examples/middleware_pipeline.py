#!/usr/bin/env python
"""Transaction-middleware pipeline: caching, retries, batching and tracing.

Every HyperProv client operation flows through a configurable middleware
chain (request-id tracing → metrics → retry → read-cache) before reaching
the Fabric network, whose invoke path is itself a pipeline of stages
(build-proposal → collect-endorsements → submit-to-orderer → await-commit)
with an endorsement batcher spliced in.  This example shows how a single
declarative :class:`PipelineConfig` turns those concerns on and off:

1. the default pipeline (observation only — identical to the raw path),
2. the read cache collapsing repeated ``get`` calls to a local lookup,
3. commit-event invalidation keeping the cache coherent,
4. the endorsement batcher coalescing orderer submissions,
5. every registry's series as one Prometheus text exposition.

Run with::

    python examples/middleware_pipeline.py
"""

from __future__ import annotations

from repro.api import HyperProvService
from repro.core import build_desktop_deployment
from repro.middleware.config import PipelineConfig


def main() -> None:
    deployment = build_desktop_deployment()
    deployment.client.init()
    service = HyperProvService(deployment)
    # Each session is its own client: its chain is fixed when it opens.
    plain = service.session()
    print(f"Default middleware chain: {plain.backend.client.pipeline.middleware_names()}")

    # Seed a record to read back.
    payload = b"pressure=1013hPa station=tromso-01"
    plain.store("stations/tromso-01/pressure", payload)

    # 1. Without the cache, every get pays the peer round trip.
    cold = plain.get("stations/tromso-01/pressure")
    warm = plain.get("stations/tromso-01/pressure")
    print("\nCache disabled (paper behaviour):")
    print(f"  1st get: {cold.latency_s * 1000:.2f} ms   2nd get: {warm.latency_s * 1000:.2f} ms")

    # 2. One config object describes another chain: cache + retry + batching.
    tuned = service.session(
        pipeline=PipelineConfig(cache=True, retry_attempts=3, order_batch_size=4)
    )
    client = tuned.backend.client
    print(f"\nReconfigured chain: {client.pipeline.middleware_names()}"
          f" + fabric endorsement batcher (size 4)")

    miss = tuned.get("stations/tromso-01/pressure")
    hit = tuned.get("stations/tromso-01/pressure")
    print(f"  miss: {miss.latency_s * 1000:.2f} ms   hit: {hit.latency_s * 1000:.3f} ms")

    # 3. A committed update invalidates the cached entry automatically.
    tuned.store("stations/tromso-01/pressure", payload + b" corrected=true")
    fresh = tuned.get("stations/tromso-01/pressure")
    print(f"  after commit-invalidation, re-read: {fresh.latency_s * 1000:.2f} ms "
          f"(checksum {fresh.checksum[:12]}…)")

    # 4. The batcher coalesces endorsed envelopes into one orderer send.
    for index in range(4):
        tuned.submit(
            f"stations/tromso-01/batch-{index}",
            checksum="ab" * 32,
            location=f"file://batch/{index}",
        )
    deployment.drain()
    batch_sizes = deployment.fabric.metrics.get_histogram("batcher.batch_size", shard="0")
    print(f"\nEndorsement batcher flushes: {batch_sizes.count:.0f} "
          f"(largest coalesced submission: {batch_sizes.maximum:.0f} envelopes)")

    hits = client.metrics.get_counter("cache.hits")
    misses = client.metrics.get_counter("cache.misses")
    print(f"Cache statistics: {hits:.0f} hits / {misses:.0f} misses")

    # 5. One export covers the deployment, both sessions, fabric, peers,
    #    orderer and network; the tuned session is ``session="1"``.
    exposition = service.exposition()
    print("\nPrometheus exposition:")
    print(exposition, end="")
    hit_series = f'hyperprov_cache_hits{{component="client",client="{client.client_name}",' \
        f'tenant="",session="1"}} {hits!r}'
    assert hit_series in exposition.splitlines(), hit_series


if __name__ == "__main__":
    main()
