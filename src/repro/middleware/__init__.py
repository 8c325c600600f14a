"""Composable transaction-middleware pipeline.

One client operation is modelled as a :class:`~repro.middleware.context.Context`
flowing through an ordered chain of :class:`~repro.middleware.base.Middleware`
objects (``handle(ctx, call_next)``) that terminates in a handler doing the
actual work (a Fabric invoke or query).  Every link returns what the
terminal does (:data:`~repro.middleware.base.Result`): ``(response,
latency)`` for a read, the ``TransactionHandle`` for a write.

The stock middlewares cover the cross-cutting concerns the roadmap calls
for — request-id tracing, per-stage metrics, bounded retry with backoff, a
read-path result cache with commit-event invalidation, and an endorsement
batcher — while :mod:`repro.middleware.stages` holds the Fabric invoke flow
itself (build-proposal → collect-endorsements → submit-to-orderer →
await-commit) decomposed into the same middleware shape.  Pipelines are
assembled declaratively from :class:`~repro.middleware.config.PipelineConfig`
so benchmarks can run ablations (cache on/off, batch size, retry attempts) as
configuration swaps instead of code forks.
"""

from repro.middleware.base import Middleware, TransactionPipeline
from repro.middleware.batching import EndorsementBatcher
from repro.middleware.cache import ReadCacheMiddleware
from repro.middleware.config import PipelineConfig, build_client_pipeline
from repro.middleware.context import Context, OperationKind
from repro.middleware.metrics import MetricsMiddleware
from repro.middleware.query import QueryPlannerMiddleware
from repro.middleware.retry import RetryMiddleware
from repro.middleware.sharding import (
    ConsistentHashRing,
    ShardRouterMiddleware,
    routing_key,
)
from repro.middleware.tenancy import (
    AdmissionControlMiddleware,
    TenantPrefixMiddleware,
    tenant_namespace,
)
from repro.middleware.tracing import RequestIdMiddleware

__all__ = [
    "Context",
    "OperationKind",
    "Middleware",
    "TransactionPipeline",
    "RequestIdMiddleware",
    "MetricsMiddleware",
    "RetryMiddleware",
    "ReadCacheMiddleware",
    "QueryPlannerMiddleware",
    "ShardRouterMiddleware",
    "ConsistentHashRing",
    "routing_key",
    "EndorsementBatcher",
    "AdmissionControlMiddleware",
    "TenantPrefixMiddleware",
    "tenant_namespace",
    "PipelineConfig",
    "build_client_pipeline",
]
