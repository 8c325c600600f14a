"""Per-operation and per-stage timing metrics for pipeline operations."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.metrics import Counter, Histogram, MetricsRegistry
from repro.fabric.proposal import TransactionHandle
from repro.middleware.base import Handler, Middleware, Result
from repro.middleware.context import Context

#: The write path's stages, in pipeline order: the ``stage`` label of
#: ``stage.latency_s`` and the rows of the ``ops/stages`` table.
STAGES = ("endorse", "order", "commit")


class MetricsMiddleware(Middleware):
    """Counts operations and times them, attributing write latency to stages.

    Reads are timed from the ``(response, latency)`` result the terminal
    returns.  Writes return a :class:`TransactionHandle` immediately; the
    middleware registers an ``on_complete`` callback and, once the anchor
    peer commits, decomposes the end-to-end latency into the endorse /
    order / commit phases recorded on the handle — the breakdown the
    ``ops/stages`` table of ``bench.experiments`` reports so the ops
    benchmark can attribute where time goes.
    """

    name = "metrics"

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        #: Operation → its ``ops`` and ``op.latency_s``, resolved on first call.
        self._operations: Dict[str, Tuple[Counter, Histogram]] = {}
        self._endorse, self._order, self._commit = (
            registry.histogram("stage.latency_s", stage=stage) for stage in STAGES
        )

    def handle(self, ctx: Context, call_next: Handler) -> Result:
        series = self._operations.get(ctx.operation)
        if series is None:
            series = self._operations[ctx.operation] = (
                self.registry.counter("ops", op=ctx.operation),
                self.registry.histogram("op.latency_s", op=ctx.operation),
            )
        calls, latency = series
        calls.inc()
        try:
            result = call_next(ctx)
        except Exception:
            self.registry.counter("errors", op=ctx.operation).inc()
            raise
        if ctx.is_read:
            latency.observe(result[1])
        else:
            result.on_complete(lambda handle: self._observe_write(ctx, latency, handle))
        return result

    # ------------------------------------------------------------ recording
    def _observe_write(self, ctx: Context, latency: Histogram, handle: TransactionHandle) -> None:
        if not handle.is_complete:
            return
        latency.observe(handle.latency_s)
        if not handle.is_valid:
            self.registry.counter("invalidated", op=ctx.operation).inc()
            return
        # A valid handle passed every invoke stage (a store-and-forward
        # placeholder copies the phases of the replay that did).
        self._endorse.observe(handle.timings["endorsement_s"])
        self._order.observe(handle.ordered_at - handle.endorsed_at)
        self._commit.observe(handle.committed_at - handle.ordered_at)
