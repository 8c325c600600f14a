#!/usr/bin/env python
"""Deterministic chaos: a scheduled partition, stale reads and replayed writes.

A ``FaultPlan`` cuts the client's host off from the rest of the
deployment between t=4s and t=7s of virtual time.  The client pipeline
runs with the resilience knobs on, so during the cut:

* reads degrade to the cache's last-known-good archive, explicitly
  marked ``stale=True`` (never silently fresh), and
* writes park in the store-and-forward queue behind placeholder handles
  and replay automatically once the partition heals.

Everything — the fault schedule, the degradation, the replays — rides
the discrete-event clock, so the run is byte-reproducible: same seed,
same commit log (``python -m repro.bench chaos`` gates exactly that).

Run with::

    python examples/chaos_partition.py
"""

from __future__ import annotations

from repro.api import HyperProvService
from repro.common.hashing import checksum_of
from repro.consensus.batching import BatchConfig
from repro.core.topology import DeploymentSpec, build_deployment
from repro.devices.profiles import DESKTOP_PROFILES, XEON_E5_1603
from repro.faults import FaultInjector, FaultPlan, PartitionFault
from repro.middleware.config import PipelineConfig


def main() -> None:
    # The client gets its own network node so the partition can isolate
    # just it (the stock desktop spec co-locates it with a peer).
    deployment = build_deployment(
        DeploymentSpec(
            name="chaos-example",
            peer_profiles=DESKTOP_PROFILES,
            orderer_profile=XEON_E5_1603,
            storage_profile=XEON_E5_1603,
            client_profile=DESKTOP_PROFILES[2],
            client_colocated_with=None,
            batch_config=BatchConfig(max_message_count=1),
            seed=42,
        )
    )
    session = HyperProvService(deployment).session(
        pipeline=PipelineConfig(cache=True, stale_reads=True, store_and_forward=True)
    )
    engine = deployment.engine

    plan = FaultPlan(
        seed=42,
        faults=(PartitionFault(start_s=4.0, end_s=7.0, groups=(("client",),)),),
    )
    injector = FaultInjector(plan, deployment.fabric).install()

    def submit(key: str, version: bytes = b"sensor reading v1") -> None:
        outcome = session.submit(key, checksum=checksum_of(version), location="edge://demo")
        handles[f"{key}@{engine.now:.1f}"] = outcome.handle

    def read(tag: str, key: str) -> None:
        view = session.get(key)
        print(
            f"  t={engine.now:4.1f}s read {key!r}: "
            f"{'STALE archive copy' if view.stale else 'fresh from the peer'}"
        )

    handles: dict = {}
    # Steady state: a write, then a read that primes the stale archive.
    engine.schedule_at(1.0, lambda: submit("sensor/a"))
    engine.schedule_at(3.0, lambda: read("prime", "sensor/a"))
    # A newer version commits: the cache entry is invalidated (the
    # archive keeps the last served copy for degraded mode).
    engine.schedule_at(3.5, lambda: submit("sensor/a", b"sensor reading v2"))
    # During the cut: the read degrades to the archive, the write parks.
    engine.schedule_at(5.0, lambda: read("degraded", "sensor/a"))
    engine.schedule_at(5.5, lambda: submit("sensor/during-cut"))
    # After the heal: fresh again.
    engine.schedule_at(9.0, lambda: read("recovered", "sensor/a"))

    outcome = deployment.fabric.flush_and_drain()

    print(f"\n  drained: {outcome.stop_reason}")
    for kind in injector.log:
        print(f"  fault event: {kind}")
    for key, handle in sorted(handles.items()):
        print(
            f"  write {key!r}: {handle.validation_code.value} "
            f"(submitted t={handle.submitted_at:.1f}s, "
            f"committed t={handle.committed_at:.1f}s)"
        )
    parked = handles["sensor/during-cut@5.5"]
    assert parked.is_valid and parked.committed_at >= 7.0
    print(
        "\n  the write submitted mid-partition was parked locally and "
        f"replayed after the heal (committed t={parked.committed_at:.1f}s)."
    )


if __name__ == "__main__":
    main()
