"""End-to-end workload scenarios for examples, benches and integration tests."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.api.protocol import SubmitHandle
from repro.api.service import ProvenanceSession
from repro.common.errors import ConfigurationError
from repro.common.hashing import checksum_of
from repro.common.metrics import percentile
from repro.core.client import HyperProvClient
from repro.workloads.payloads import DataItem, ImagePayloadGenerator, SensorReadingGenerator


@dataclass
class PipelineStage:
    """One stage of a derivation pipeline (e.g. raw image → thumbnail)."""

    name: str
    #: Output size as a fraction of the combined input size.
    reduction_factor: float = 0.25
    metadata: Dict[str, object] = field(default_factory=dict)


class IoTPipelineWorkload:
    """The IoT edge scenario the paper's introduction motivates.

    Edge sensors and cameras produce raw data items; edge-processing
    stages derive aggregated or reduced artifacts from them (thumbnails,
    anomaly summaries).  Every item and every derivation is recorded
    through the unified :class:`~repro.api.ProvenanceSession` API —
    submissions are futures that complete when the recording transaction
    commits — giving a multi-level lineage graph to query.

    Accepts either a session or a bare :class:`HyperProvClient` (wrapped
    in a default session for backward compatibility).
    """

    def __init__(
        self,
        client: Union[HyperProvClient, ProvenanceSession],
        sensor_count: int = 2,
        camera_count: int = 1,
        image_size_bytes: int = 256 * 1024,
        seed: int = 42,
    ) -> None:
        if isinstance(client, ProvenanceSession):
            self.session = client
        else:
            self.session = ProvenanceSession(client.as_store())
        self.sensors = [
            SensorReadingGenerator(sensor_id=f"sensor-{i + 1}", seed=seed + i)
            for i in range(sensor_count)
        ]
        self.cameras = [
            ImagePayloadGenerator(
                camera_id=f"camera-{i + 1}", size_bytes=image_size_bytes, seed=seed + 100 + i
            )
            for i in range(camera_count)
        ]
        self.raw_posts: List[SubmitHandle] = []
        self.derived_posts: List[SubmitHandle] = []

    # ----------------------------------------------------------- ingestion
    def ingest_round(self) -> List[SubmitHandle]:
        """Produce one reading per sensor and one frame per camera, store all.

        Submissions are non-blocking: the returned handles complete when
        the caller drains the deployment (or the session).
        """
        posts: List[SubmitHandle] = []
        for generator in [*self.sensors, *self.cameras]:
            item: DataItem = generator.next_item()
            post = self.session.submit(
                item.key, item.data, metadata=dict(item.metadata)
            )
            posts.append(post)
        self.raw_posts.extend(posts)
        return posts

    # ---------------------------------------------------------- derivation
    def derive(
        self,
        stage: PipelineStage,
        source_posts: Optional[List[SubmitHandle]] = None,
        output_key: Optional[str] = None,
    ) -> SubmitHandle:
        """Create a derived artifact from previously stored items.

        The derived payload is a deterministic reduction of the inputs and
        its on-chain record lists every input key as a dependency, which is
        what makes lineage queries meaningful.
        """
        sources = source_posts if source_posts is not None else self.raw_posts
        if not sources:
            raise ValueError("cannot derive from an empty source set")
        combined = b"".join(post.record.checksum.encode("ascii") for post in sources)
        output_size = max(16, int(len(combined) * stage.reduction_factor))
        derived_data = (combined * (output_size // max(1, len(combined)) + 1))[:output_size]
        key = output_key or f"derived/{stage.name}/{len(self.derived_posts) + 1:04d}"
        post = self.session.submit(
            key,
            derived_data,
            dependencies=tuple(p.request.key for p in sources),
            metadata={"stage": stage.name, **stage.metadata},
        )
        self.derived_posts.append(post)
        return post

    # ------------------------------------------------------------- checking
    def verify_all(self) -> Dict[str, bool]:
        """Re-fetch every stored item and verify its checksum on chain."""
        storage = getattr(self.session.backend, "storage", None)
        results: Dict[str, bool] = {}
        for post in [*self.raw_posts, *self.derived_posts]:
            key = post.request.key
            obj = storage.get_object(post.record.checksum) if storage else None
            if obj is None:
                results[key] = False
                continue
            results[key] = (
                checksum_of(obj.data) == post.record.checksum
                and bool(self.session.verify(key, obj.data))
            )
        return results


# --------------------------------------------------------------------------
# Skewed multi-tenant load (tenant-isolation benches and fairness tests)
# --------------------------------------------------------------------------
@dataclass
class TenantLoadResult:
    """Per-tenant outcome of one skewed-load run."""

    tenant: str
    submitted: int
    committed: int
    response_times_s: List[float] = field(default_factory=list)

    def response_percentile_s(self, pct: float) -> float:
        if not self.response_times_s:
            return float("nan")
        return percentile(self.response_times_s, pct)

    @property
    def p95_response_s(self) -> float:
        return self.response_percentile_s(95)


class SkewedTenantWorkload:
    """Open-loop load from tenants submitting at very different rates.

    The scenario behind tenant-aware scheduling: a *heavy* tenant floods
    the ordering path while a *light* tenant trickles requests in.  Every
    submission is a metadata-only provenance post (no off-chain payload),
    so the measured response times isolate the ordering/commit path where
    the intake scheduler acts.  ``run()`` schedules both tenants' arrivals
    on the deployment's virtual clock, drains, and reports per-tenant
    commit latencies — compare the light tenant's p95 under ``fifo`` vs
    ``fair-share`` (or vs its solo run) to quantify starvation.
    """

    def __init__(
        self,
        service: Any,
        light_requests: int = 10,
        skew: int = 10,
        light_interval_s: float = 0.05,
        heavy_interval_s: Optional[float] = None,
        light_tenant: str = "light",
        heavy_tenant: str = "heavy",
        payload_checksum: str = "ab" * 32,
    ) -> None:
        if light_requests < 1:
            raise ConfigurationError("light_requests must be >= 1")
        if skew < 1:
            raise ConfigurationError("skew must be >= 1")
        self.service = service
        self.light_requests = light_requests
        self.heavy_requests = light_requests * skew
        self.light_interval_s = light_interval_s
        #: Heavy arrivals default to the same window as the light tenant's.
        self.heavy_interval_s = (
            heavy_interval_s
            if heavy_interval_s is not None
            else light_interval_s / skew
        )
        self.light_tenant = light_tenant
        self.heavy_tenant = heavy_tenant
        self.payload_checksum = payload_checksum

    def _submit_all(
        self, session: ProvenanceSession, tenant: str, count: int, interval_s: float
    ) -> List[Tuple[SubmitHandle, float]]:
        start = self.service.deployment.engine.now
        submissions: List[Tuple[SubmitHandle, float]] = []
        for index in range(count):
            at_time = start + index * interval_s
            handle = session.submit(
                f"{tenant}/item-{index:05d}",
                checksum=self.payload_checksum,
                location=f"ext://{tenant}/{index}",
                at_time=at_time,
            )
            submissions.append((handle, at_time))
        return submissions

    @staticmethod
    def _collect(tenant: str, submissions: List[Tuple[SubmitHandle, float]]) -> TenantLoadResult:
        result = TenantLoadResult(
            tenant=tenant, submitted=len(submissions), committed=0
        )
        for handle, at_time in submissions:
            if handle.done and handle.ok:
                result.committed += 1
                result.response_times_s.append(handle.committed_at - at_time)
        return result

    def run(self, only_light: bool = False) -> Dict[str, TenantLoadResult]:
        """Run the skewed load; ``only_light`` measures the light tenant solo."""
        results: Dict[str, TenantLoadResult] = {}
        with self.service.session(tenant=self.light_tenant) as light:
            light_submissions = self._submit_all(
                light, self.light_tenant, self.light_requests, self.light_interval_s
            )
            if not only_light:
                with self.service.session(tenant=self.heavy_tenant) as heavy:
                    heavy_submissions = self._submit_all(
                        heavy, self.heavy_tenant, self.heavy_requests,
                        self.heavy_interval_s,
                    )
                    self.service.drain()
                    results[self.heavy_tenant] = self._collect(
                        self.heavy_tenant, heavy_submissions
                    )
            self.service.drain()
            results[self.light_tenant] = self._collect(
                self.light_tenant, light_submissions
            )
        return results
