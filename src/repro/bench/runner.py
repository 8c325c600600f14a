"""The StoreData workload runner shared by the sweeps and the tables.

The paper's custom benchmarking program issues ``StoreData`` requests in a
closed loop and reports the achieved throughput and the response time
observed by the client.  The runner reproduces that through the unified
:class:`~repro.api.ProvenanceSession` API: ``concurrency`` logical request
slots are kept outstanding as in-flight futures (``session.submit``);
whenever a submission's future completes on the client's anchor peer, the
slot immediately issues the next request.  Throughput and response times
fall out of the completed handles, as one row of raw values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.api.protocol import SubmitHandle
from repro.api.service import HyperProvService
from repro.common.hashing import checksum_of
from repro.common.metrics import percentile
from repro.core.topology import HyperProvDeployment
from repro.middleware.config import PipelineConfig
from repro.middleware.stages import CLIENT_OVERHEAD_S
from repro.storage.sshfs import PROTOCOL_OVERHEAD_S
from repro.workloads.payloads import DataItem, PayloadGenerator


@dataclass
class RunConfig:
    """Parameters of one StoreData measurement run."""

    data_size_bytes: int
    request_count: int = 30
    #: Number of outstanding requests the closed loop keeps in flight.  Kept
    #: above the orderer's default MaxMessageCount (10) so blocks are cut by
    #: count rather than by the batch timeout under load.
    concurrency: int = 16
    seed: int = 42
    #: Declarative middleware configuration applied to the deployment's
    #: client (and the fabric's endorsement batcher) before the run; ``None``
    #: keeps whatever pipeline the client already has.
    pipeline: Optional[PipelineConfig] = None
    #: Submit metadata-only provenance posts (checksum + location) instead
    #: of storing payloads off-chain — isolates the ordering/commit path
    #: from the client-side storage cost (the sharding ablation's mode).
    metadata_only: bool = False


class StoreDataRunner:
    """Drives a closed-loop StoreData workload against a deployment."""

    def __init__(self, deployment: HyperProvDeployment) -> None:
        self.deployment = deployment
        self.service = HyperProvService(deployment)

    # ------------------------------------------------------------ estimation
    def estimate_item_interval(self, size_bytes: int) -> float:
        """Estimate the client's unavoidable per-item time for a payload size.

        Checksum + SSH encryption on the client CPU, transfer to the storage
        node at the bottleneck bandwidth, fixed protocol and SDK overheads.
        Used to stagger the initial closed-loop submissions.
        """
        client = self.deployment.client_device
        profile = client.profile
        storage_profile = self.deployment.storage_backend.storage_device.profile
        bandwidth = min(profile.nic.bandwidth_bps, storage_profile.nic.bandwidth_bps)
        hashing = size_bytes / profile.hash_rate_bytes_per_s * 1.5
        transfer = size_bytes * 8.0 / bandwidth
        fixed = (
            PROTOCOL_OVERHEAD_S
            + CLIENT_OVERHEAD_S
            + profile.sign_time_s
            + profile.chaincode_invoke_overhead_s * 0.5
        )
        return hashing + transfer + fixed

    # ------------------------------------------------------------------- run
    def run(self, config: RunConfig) -> Dict[str, Any]:
        """Execute one closed-loop measurement run.

        The row: ``committed``, ``failed``, ``throughput_tps``, the mean,
        p50 and p95 response time (NaN with nothing committed) and
        ``storage_share``, the mean off-chain storage time over the mean
        response time.
        """
        deployment = self.deployment
        engine = deployment.engine
        session = self.service.session(pipeline=config.pipeline)
        generator = PayloadGenerator(
            size_bytes=config.data_size_bytes,
            seed=config.seed,
            prefix=f"bench/{config.data_size_bytes}",
        )
        items: Iterator[DataItem] = generator.items(config.request_count)
        stagger = self.estimate_item_interval(config.data_size_bytes) / max(1, config.concurrency)

        start_time = engine.now
        state = {"issued": 0}
        submissions: List[float] = []
        handles: List[SubmitHandle] = []
        storage_times: List[float] = []

        def issue_next() -> None:
            """Submit the next item at the current virtual time (one slot)."""
            if state["issued"] >= config.request_count:
                return
            state["issued"] += 1
            submitted_at = engine.now
            if config.metadata_only:
                # Metadata-only posts never touch payload bytes; take just
                # the next key so the driver does not generate (and then
                # discard) the payload on the measured wall-clock path.
                key = generator.next_key()
                handle = session.submit(
                    key,
                    checksum=checksum_of(key.encode("utf-8")),
                    location=f"ext://{key}",
                    size_bytes=config.data_size_bytes,
                    metadata={"bench": True, "size": config.data_size_bytes},
                )
            else:
                item = next(items)
                handle = session.submit(
                    item.key,
                    item.data,
                    metadata={"bench": True, "size": config.data_size_bytes},
                )
            submissions.append(submitted_at)
            handles.append(handle)
            if handle.storage_receipt is not None:
                storage_times.append(handle.storage_receipt.duration_s)
            handle.add_done_callback(
                lambda done: engine.schedule_at(
                    max(engine.now, done.committed_at),
                    issue_next,
                    label="bench:next",
                )
            )

        # Prime the loop: stagger the initial slots slightly so they do not
        # collide on the client CPU at t=0.
        for slot in range(min(config.concurrency, config.request_count)):
            engine.schedule_at(start_time + slot * stagger, issue_next, label="bench:prime")

        session.drain()
        # The last partial block may still be pending on the batch timeout:
        # closing drains once more, then releases the session's pipeline.
        session.close()

        committed = [h for h in handles if h.done and h.ok]
        failed = [h for h in handles if h.done and not h.ok]
        response_times = [
            handle.committed_at - submitted
            for handle, submitted in zip(handles, submissions)
            if handle.done and handle.ok
        ]
        if not committed:
            nan = float("nan")
            return {"committed": 0, "failed": len(failed), "throughput_tps": 0.0,
                    "mean_response_s": nan, "p50_response_s": nan, "p95_response_s": nan,
                    "storage_share": 0.0}
        last_commit = max(h.committed_at for h in committed)
        mean_response = sum(response_times) / len(response_times)
        mean_storage = sum(storage_times) / len(storage_times) if storage_times else 0.0
        return {
            "committed": len(committed),
            "failed": len(failed),
            "throughput_tps": len(committed) / max(1e-9, last_commit - start_time),
            "mean_response_s": mean_response,
            "p50_response_s": percentile(response_times, 50),
            "p95_response_s": percentile(response_times, 95),
            "storage_share": mean_storage / mean_response if mean_response else 0.0,
        }
