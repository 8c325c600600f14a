#!/usr/bin/env python
"""Sharded multi-channel routing with tenant-aware fair-share ordering.

One deployment hosts several channels, each ordered by its own machine;
the client pipeline's shard router spreads keys over them by consistent
hashing (a tenant's keys co-locate on one channel), cross-shard range and
history reads fan out and merge, and the orderer's intake can run a
fair-share scheduler so a heavy tenant cannot starve a light one.

Run with::

    python examples/sharded_channels.py
"""

from __future__ import annotations

from repro.api import HyperProvService
from repro.consensus.batching import BatchConfig
from repro.core import build_desktop_deployment
from repro.middleware import PipelineConfig
from repro.middleware.sharding import ConsistentHashRing
from repro.workloads import SkewedTenantWorkload

SHARDS = 4


def main() -> None:
    # --- A 4-channel deployment: orderer, orderer-1 … orderer-3. -----------
    deployment = build_desktop_deployment(shards=SHARDS)
    service = HyperProvService(deployment)
    print(f"channels hosted: {deployment.fabric.shard_count}")

    # --- Writes spread over the shards; reads follow their keys. -----------
    ring = ConsistentHashRing(SHARDS)
    with service.session(pipeline=PipelineConfig(shards=SHARDS)) as session:
        for index in range(12):
            session.submit(f"sensors/{index}", f"reading-{index}".encode())
        session.drain()

        for index in (0, 5, 11):
            key = f"sensors/{index}"
            view = session.get(key)
            print(f"{key} lives on shard {ring.route(key)}: {view.checksum[:12]}…")

        per_shard = [
            sum(deployment.fabric.shard_ledger_heights(i).values()) // len(deployment.peers)
            for i in range(SHARDS)
        ]
        print(f"blocks per shard (hashing is uneven by nature): {per_shard}")

        # A range scan fans out to every shard and merges in key order.
        rows = session.backend.client.get_by_range("sensors/", "sensors/~").payload
        print(f"range scan found {len(rows)} records across {SHARDS} shards")

    # --- Fair-share ordering under a 10x-heavier neighbour. ----------------
    # Tenants that hash to different channels are isolated by the sharding
    # itself; the intake scheduler matters when they share one orderer, so
    # the comparison runs on a single-channel deployment with an explicit
    # per-envelope ordering cost (the backlog the scheduler arbitrates).
    def light_p95(scheduler: str) -> float:
        contended = build_desktop_deployment(
            scheduler=scheduler,
            orderer_intake_interval_s=0.01,
            batch_config=BatchConfig(batch_timeout_s=0.25),
        )
        workload = SkewedTenantWorkload(
            HyperProvService(contended), light_requests=10, skew=10,
            light_interval_s=0.05, heavy_interval_s=0.001,
        )
        return workload.run()["light"].p95_response_s

    fifo, fair = light_p95("fifo"), light_p95("fair-share")
    print(
        f"light tenant p95 under 10x skew: fifo {fifo * 1000:.0f} ms vs "
        f"fair-share {fair * 1000:.0f} ms ({fifo / fair:.1f}x better)"
    )


if __name__ == "__main__":
    main()
