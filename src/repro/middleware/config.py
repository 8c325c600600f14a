"""Declarative pipeline configuration.

Benchmarks and the CLI describe a pipeline as data — cache on/off, retry
attempts, batch size — and build it here, so an ablation is a config swap
rather than a code fork.  ``PipelineConfig()`` (all defaults) reproduces
the pre-middleware behaviour exactly: request ids and metrics only observe,
retry makes a single attempt, the cache is off and the batcher passes
every envelope straight through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.errors import ConfigurationError, ValidationError
from repro.common.events import EventBus
from repro.common.metrics import MetricsRegistry
from repro.consensus.scheduler import SCHEDULER_NAMES
from repro.middleware.base import Handler, Middleware, TransactionPipeline
from repro.middleware.cache import ReadCacheMiddleware
from repro.middleware.metrics import MetricsMiddleware
from repro.middleware.query import QueryPlannerMiddleware
from repro.middleware.resilience import StoreAndForwardMiddleware
from repro.middleware.retry import RetryMiddleware
from repro.middleware.sharding import Placement, ShardRouterMiddleware
from repro.middleware.tenancy import (
    AdmissionControlMiddleware,
    TenantPrefixMiddleware,
    tenant_namespace,
)
from repro.middleware.tracing import RequestIdMiddleware
from repro.query.indexes import validate_index_fields
from repro.simulation.engine import SimulationEngine


@dataclass
class PipelineConfig:
    """Which middlewares a client pipeline runs, and how they are tuned."""

    #: Total attempts per operation (1 = no retry).
    retry_attempts: int = 1
    #: Serve repeated reads from a client-side cache (commit-invalidated).
    cache: bool = False
    cache_capacity: int = 256
    #: Endorsed envelopes coalesced per orderer submission (fabric-side).
    order_batch_size: int = 1
    #: Tenant whose namespace every key argument is rewritten into
    #: (empty = single-tenant, no rewriting).
    tenant: str = ""
    #: Per-tenant cap on in-flight write submissions (0 = uncapped).
    max_in_flight: int = 0
    #: Channel shards the router spreads keys over (1 = no routing; must
    #: not exceed the deployment's hosted channel count).
    shards: int = 1
    #: Orderer intake scheduling policy (``fifo`` or ``fair-share``),
    #: applied to every shard's ordering service alongside this config.
    #: ``None`` (the default) leaves whatever policy the deployment was
    #: built with untouched.
    scheduler: Optional[str] = None
    #: Field-value secondary indexes maintained on every peer's world state
    #: (record fields, ``metadata.<key>`` or ``metadata.*``; empty = none).
    #: Enables the query-planner middleware and, when the config is applied
    #: to a deployment, ``FabricNetwork.enable_secondary_indexes``.
    indexes: Tuple[str, ...] = ()
    #: Allow sessions built from this config to register standing
    #: commit-fed selectors (``session.subscribe``).
    continuous_queries: bool = False
    #: Queue unreachable writes locally and replay them on a virtual-time
    #: interval (graceful degradation during partitions).
    store_and_forward: bool = False
    #: Serve reads from the last-known-good archive with an explicit
    #: ``stale=True`` marker when the peer is unreachable (needs
    #: ``cache=True``).
    stale_reads: bool = False

    def __post_init__(self) -> None:
        if self.retry_attempts < 1:
            raise ConfigurationError("retry_attempts must be >= 1")
        if self.stale_reads and not self.cache:
            raise ConfigurationError(
                "stale_reads needs cache=True (the stale archive lives in "
                "the read-cache middleware)"
            )
        if self.cache_capacity < 1:
            raise ConfigurationError("cache_capacity must be >= 1")
        if self.order_batch_size < 1:
            raise ConfigurationError("order_batch_size must be >= 1")
        if self.max_in_flight < 0:
            raise ConfigurationError("max_in_flight must be >= 0")
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.scheduler is not None and self.scheduler not in SCHEDULER_NAMES:
            raise ConfigurationError(
                f"unknown scheduler {self.scheduler!r} (choose from {SCHEDULER_NAMES})"
            )
        if self.tenant:
            tenant_namespace(self.tenant)  # validates the name
        if self.indexes:
            try:
                self.indexes = validate_index_fields(self.indexes)
            except ValidationError as error:
                raise ConfigurationError(str(error)) from error
        else:
            self.indexes = ()


def build_client_pipeline(
    config: PipelineConfig,
    terminal: Handler,
    *,
    events: EventBus,
    metrics: MetricsRegistry,
    engine: SimulationEngine,
    placement: Placement,
) -> TransactionPipeline:
    """Build the stock chain a :class:`PipelineConfig` asks for around ``terminal``.

    This function alone decides chain membership and order
    (``TransactionPipeline.middleware_names()`` reports the result):
    tracing (outermost, so every attempt is visible under one request id)
    → metrics (counts the operation once) →
    query-planner (surfaces the access path rich-query responses report) →
    admission control (rejects over-cap writes before they consume any
    downstream work) → tenant-prefix (namespaces keys before the cache and
    the terminal ever see them) → store-and-forward (above retry, so a
    write queues only after retry exhausted the transient path) → retry →
    cache (so a retried attempt can still be answered from cache and a hit
    short-circuits everything below it) → shard-router (innermost: routing
    runs per attempt and a cache hit never pays the fan-out).

    It is also the one place a link gets its collaborators: ``events`` is
    the bus trace events go to and the cache's commit invalidation
    subscribes to; ``metrics`` is the registry every link counts in;
    ``engine`` is the virtual clock retry backs off on and the
    store-and-forward replay timer runs on; ``placement`` (tenant →
    shards holding its namespace) lets the shard router confine a
    tenant's fan-out reads.
    """
    middlewares: List[Middleware] = [
        RequestIdMiddleware(events=events),
        MetricsMiddleware(registry=metrics),
    ]
    if config.indexes:
        middlewares.append(QueryPlannerMiddleware(config.indexes, metrics=metrics))
    if config.max_in_flight > 0:
        middlewares.append(
            AdmissionControlMiddleware(
                max_in_flight=config.max_in_flight,
                tenant=config.tenant,
                metrics=metrics,
            )
        )
    if config.tenant:
        middlewares.append(TenantPrefixMiddleware(config.tenant, metrics=metrics))
    if config.store_and_forward:
        middlewares.append(StoreAndForwardMiddleware(engine, metrics=metrics))
    if config.retry_attempts > 1:
        middlewares.append(
            RetryMiddleware(
                max_attempts=config.retry_attempts,
                engine=engine,
                metrics=metrics,
            )
        )
    if config.cache:
        middlewares.append(
            ReadCacheMiddleware(
                capacity=config.cache_capacity,
                events=events,
                metrics=metrics,
                serve_stale=config.stale_reads,
            )
        )
    if config.shards > 1:
        middlewares.append(
            ShardRouterMiddleware(config.shards, metrics=metrics, placement=placement)
        )
    return TransactionPipeline(middlewares, terminal)
