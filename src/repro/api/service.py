"""Sessioned service facade over a HyperProv deployment.

:class:`HyperProvService` turns a deployment into a multi-tenant service:
each :meth:`~HyperProvService.session` hands out a
:class:`ProvenanceSession` over a client of its own, built with the
session's middleware pipeline (tenant key-prefixing, optional per-tenant
in-flight admission cap, cache, retry, …), so opening one session never
changes another's path.  The session's write path is non-blocking —
``submit()`` returns a :class:`~repro.api.protocol.SubmitHandle` future
and multiple endorsed envelopes stay in flight through the endorsement
batcher — while ``drain()`` (or leaving the session's ``with`` block)
awaits commits.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.api.protocol import (
    HistoryView,
    ProvenanceStore,
    QueryPage,
    RecordView,
    StoreRequest,
    SubmitHandle,
    VerifyResult,
)
from repro.common.errors import ConfigurationError
from repro.common.metrics import MetricsRegistry, render_exposition
from repro.middleware.config import PipelineConfig
from repro.middleware.tenancy import AdmissionControlMiddleware, InFlightCounter


class ProvenanceSession:
    """One tenant's handle on a provenance store.

    All keys are tenant-relative: the pipeline's tenant-prefix middleware
    maps them into ``tenant/<name>/…`` on the way down and the store
    decodes every answer without the namespace, so application code is
    identical in single- and multi-tenant deployments.
    """

    def __init__(self, store: ProvenanceStore, tenant: str = "") -> None:
        #: The underlying :class:`ProvenanceStore`, owned by the session.
        self.backend = store
        self.tenant = tenant
        self._in_flight = 0
        self._subscriptions: List[Any] = []
        self._closed = False

    # ------------------------------------------------------------ utilities
    @property
    def in_flight(self) -> int:
        """Submissions not yet committed."""
        return self._in_flight

    # -------------------------------------------------------------- writes
    def submit(
        self,
        key: str,
        data: Optional[bytes] = None,
        *,
        checksum: Optional[str] = None,
        location: Optional[str] = None,
        dependencies: Tuple[str, ...] = (),
        metadata: Optional[Dict[str, Any]] = None,
        size_bytes: int = 0,
        at_time: Optional[float] = None,
    ) -> SubmitHandle:
        """Non-blocking write; the returned future completes at commit.

        Raises :class:`~repro.common.errors.AdmissionRejectedError` when
        the session's tenant is at its in-flight cap.
        """
        request = StoreRequest(
            key=key,
            data=data,
            checksum=checksum,
            location=location,
            dependencies=dependencies,
            metadata={} if metadata is None else metadata,
            size_bytes=size_bytes,
        )
        handle = self.backend.submit(request, at_time=at_time)
        if not handle.done:
            # Counted, not kept: a caller that drops its handle frees it.
            self._in_flight += 1
            handle.add_done_callback(self._on_done)
        return handle

    def _on_done(self, _handle: SubmitHandle) -> None:
        self._in_flight -= 1

    def store(self, key: str, data: Optional[bytes] = None, **kwargs: Any) -> SubmitHandle:
        """Blocking write: ``submit`` then ``drain``."""
        handle = self.submit(key, data, **kwargs)
        if not handle.done:
            self.drain()
        return handle

    # --------------------------------------------------------------- reads
    def get(self, key: str, at_time: Optional[float] = None) -> RecordView:
        return self.backend.get(key, at_time=at_time)

    def history(self, key: str, at_time: Optional[float] = None) -> HistoryView:
        return self.backend.history(key, at_time=at_time)

    def verify(
        self,
        key: str,
        data_or_checksum: Union[bytes, bytearray, str],
        at_time: Optional[float] = None,
    ) -> VerifyResult:
        return self.backend.verify(key, data_or_checksum, at_time=at_time)

    def audit(self) -> bool:
        return self.backend.audit()

    def query(
        self,
        selector: Dict[str, Any],
        at_time: Optional[float] = None,
        limit: Optional[int] = None,
        bookmark: Optional[str] = None,
        explain: bool = False,
    ) -> QueryPage:
        """Rich query scoped to this session's tenant namespace.

        Selectors match record fields (``docs/api.md`` has the syntax);
        ``limit``/``bookmark`` page through the matches — pass the
        returned :attr:`QueryPage.bookmark` back to resume — and
        ``explain=True`` surfaces the planner's access-path report.
        Returned keys and bookmarks are tenant-relative.
        """
        return self.backend.query(
            selector,
            at_time=at_time,
            limit=limit,
            bookmark=bookmark,
            explain=explain,
        )

    def subscribe(
        self,
        selector: Dict[str, Any],
        callback: Optional[Any] = None,
    ) -> Any:
        """Standing continuous query: matching commits are pushed as they land.

        ``selector`` uses the rich-query syntax (``_prefix`` scoping
        allowed, pagination fields rejected).  With a ``callback`` every
        matching committed record is delivered immediately; without one,
        deliveries buffer on the returned handle (``pop_events()``).
        Handles are cancelled automatically when the session closes.
        Requires a pipeline built with ``continuous_queries=True``.
        """
        handle = self.backend.subscribe(selector, callback=callback)
        self._subscriptions.append(handle)
        return handle

    # ------------------------------------------------------------ lifecycle
    def drain(self) -> None:
        """Await every in-flight submission made through this session.

        Always drains the backend — closed-loop callers schedule future
        submissions on the simulation engine, so there can be work pending
        even when no handle is currently in flight.
        """
        self.backend.drain()

    def close(self) -> None:
        """Drain, then release the session's store and its pipeline.

        Standing continuous queries registered through this session are
        cancelled here — a closed session must never receive further
        deliveries.
        """
        if self._closed:
            return
        self.drain()
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions.clear()
        self.backend.close()
        self._closed = True

    def __enter__(self) -> "ProvenanceSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tenant = self.tenant or "<default>"
        return (
            f"<ProvenanceSession tenant={tenant} backend={self.backend.backend_name} "
            f"in_flight={self.in_flight}>"
        )


class HyperProvService:
    """Service facade: tenant sessions over one HyperProv deployment."""

    def __init__(self, deployment: Any) -> None:
        self.deployment = deployment
        #: One in-flight counter per tenant, shared across its sessions,
        #: so the admission cap is per tenant rather than per session.
        self._admission_counters: Dict[str, InFlightCounter] = {}
        #: Each session's client registry, labelled ``session`` by opening order.
        self._session_metrics: List[MetricsRegistry] = []

    def session(
        self,
        tenant: Optional[str] = None,
        pipeline: Optional[PipelineConfig] = None,
        max_in_flight: int = 0,
    ) -> ProvenanceSession:
        """Open a session on a client of its own.

        The client's pipeline is ``pipeline`` (default: the stock chain)
        with ``tenant`` and ``max_in_flight`` filled in, so the session
        gets the tenant-prefix and admission-control middlewares they
        ask for; the network, identity and off-chain storage are the
        deployment's.  A ``pipeline`` naming its own tenant or cap must
        agree with the arguments (:class:`ConfigurationError` otherwise),
        and one that is passed also pushes its fabric-side knobs onto the
        shared network (:meth:`HyperProvClient.apply_fabric_knobs`).
        """
        from repro.core.client import HyperProvClient

        config = pipeline or PipelineConfig()
        if config.tenant and config.tenant != tenant:
            raise ConfigurationError(
                f"pipeline names tenant {config.tenant!r} but the session "
                f"asks for {tenant!r}: pass the tenant as session(tenant=...)"
            )
        if config.max_in_flight and config.max_in_flight != max_in_flight:
            raise ConfigurationError(
                f"pipeline caps in-flight writes at {config.max_in_flight} but "
                f"the session asks for {max_in_flight}: pass the cap as "
                f"session(max_in_flight=...)"
            )
        config = replace(config, tenant=tenant or "", max_in_flight=max_in_flight)
        client = HyperProvClient(
            network=self.deployment.fabric,
            client_name=self.deployment.client.client_name,
            storage=self.deployment.storage,
            pipeline_config=config,
        )
        if config.max_in_flight > 0:
            admission = client.pipeline.find(AdmissionControlMiddleware)
            if admission is not None:
                counter = self._admission_counters.setdefault(
                    config.tenant, InFlightCounter()
                )
                admission.adopt_counter(counter)
        if pipeline is not None:
            client.apply_fabric_knobs()
        client.metrics.labels["session"] = str(len(self._session_metrics))
        self._session_metrics.append(client.metrics)
        return ProvenanceSession(client.as_store(), tenant=config.tenant)

    def exposition(self) -> str:
        """Every registry of the deployment and its sessions, as Prometheus text."""
        fabric = self.deployment.fabric
        return render_exposition([
            self.deployment.client.metrics,
            *self._session_metrics,
            fabric.metrics,
            *(peer.metrics for shard in fabric.shards for peer in shard.ordered_peers),
            *(shard.orderer.metrics for shard in fabric.shards),
            fabric.network.metrics,
        ])

    def drain(self) -> None:
        """Flush pending batches and run the simulation to quiescence."""
        self.deployment.drain()
