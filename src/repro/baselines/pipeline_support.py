"""Shared pipeline wiring for the baseline provenance stores.

Both baselines (central DB, PoW chain) expose the same three operations
— ``store_record`` / ``get`` / ``history`` — and route them through a
:class:`~repro.middleware.base.TransactionPipeline` the same way.  This
mixin holds that wiring once: subclasses implement ``_store_record``,
``_get`` and ``_history`` and call :meth:`_init_pipeline` from their
constructor.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.common.errors import NotFoundError
from repro.common.metrics import MetricsRegistry
from repro.middleware.base import TransactionPipeline
from repro.middleware.cache import ReadCacheMiddleware
from repro.middleware.config import PipelineConfig, build_client_pipeline
from repro.middleware.context import Context, OperationKind


class PipelinedStoreMixin:
    """Routes a baseline's operations through a transaction pipeline."""

    #: Pipeline-context namespace; subclasses override (e.g. ``"centraldb"``).
    chaincode_label = "baseline"

    def as_store(self):
        """This baseline as a unified :class:`repro.api.ProvenanceStore`."""
        adapter = getattr(self, "_store_adapter", None)
        if adapter is None:
            from repro.api.adapters import adapt_store

            adapter = adapt_store(self)
            self._store_adapter = adapter
        return adapter

    def _init_pipeline(
        self,
        pipeline_config: Optional[PipelineConfig],
        metrics: Optional[MetricsRegistry],
        namespace: str,
    ) -> None:
        self.metrics = metrics or MetricsRegistry(namespace)
        self.pipeline_config = pipeline_config or PipelineConfig()
        self.pipeline: TransactionPipeline = build_client_pipeline(
            self.pipeline_config, self._dispatch, metrics=self.metrics
        )

    # ------------------------------------------------------------- dispatch
    def _dispatch(self, ctx: Context) -> Any:
        """Terminal pipeline handler routing on the operation name."""
        if ctx.operation == "store_record":
            return self._store_record(**ctx.tags["store"])
        if ctx.operation == "get":
            return self._get(ctx.args[0])
        if ctx.operation == "history":
            return self._history(ctx.args[0])
        raise NotFoundError(
            f"unknown {self.chaincode_label} operation {ctx.operation!r}"
        )

    def _execute(
        self, operation: str, kind: OperationKind, args: List[str], **store_kwargs
    ) -> Any:
        ctx = Context(
            operation=operation,
            kind=kind,
            chaincode=self.chaincode_label,
            function=operation,
            args=args,
        )
        if store_kwargs:
            ctx.tags["store"] = store_kwargs
        return self.pipeline.execute(ctx)

    # --------------------------------------------------------- invalidation
    def _invalidate_cached_reads(self, key: str) -> None:
        """Purge cached reads for ``key`` after a successful store."""
        cache = self.pipeline.find(ReadCacheMiddleware)
        if cache is not None:
            cache.invalidate_key(key)

    # ------------------------------------------------- subclass obligations
    def _store_record(self, **kwargs: Any) -> Any:
        raise NotImplementedError

    def _get(self, key: str) -> Any:
        raise NotImplementedError

    def _history(self, key: str) -> Any:
        raise NotImplementedError
