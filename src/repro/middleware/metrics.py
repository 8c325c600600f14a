"""Per-operation and per-stage timing metrics for pipeline operations."""

from __future__ import annotations

from repro.common.metrics import MetricsRegistry
from repro.fabric.proposal import TransactionHandle
from repro.middleware.base import Handler, Middleware, Result
from repro.middleware.context import Context

#: Histogram names for the write path's per-stage latency breakdown.
STAGE_ENDORSE = "stage.endorse_s"
STAGE_ORDER = "stage.order_s"
STAGE_COMMIT = "stage.commit_s"
STAGE_NAMES = (STAGE_ENDORSE, STAGE_ORDER, STAGE_COMMIT)
#: Canonical stage label → histogram name, in pipeline order.  The bench
#: reporting/export layers derive their stage lists from this mapping.
STAGES = {
    "endorse": STAGE_ENDORSE,
    "order": STAGE_ORDER,
    "commit": STAGE_COMMIT,
}


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

    def handle(self, ctx: Context, call_next: Handler) -> Result:
        self.registry.counter(f"ops.{ctx.operation}").inc()
        try:
            result = call_next(ctx)
        except Exception:
            self.registry.counter(f"errors.{ctx.operation}").inc()
            raise
        if ctx.is_read:
            self.registry.histogram(f"op.{ctx.operation}.latency_s").observe(result[1])
        else:
            result.on_complete(lambda handle: self._observe_write(ctx, handle))
        return result

    # ------------------------------------------------------------ recording
    def _observe_write(self, ctx: Context, handle: TransactionHandle) -> None:
        if not handle.is_complete:
            return
        self.registry.histogram(f"op.{ctx.operation}.latency_s").observe(handle.latency_s)
        if not handle.is_valid:
            self.registry.counter(f"invalidated.{ctx.operation}").inc()
            return
        endorse = handle.timings.get("endorsement_s")
        if endorse is None and handle.endorsed_at:
            endorse = handle.endorsed_at - handle.submitted_at
        order = None
        if handle.ordered_at and handle.endorsed_at:
            order = handle.ordered_at - handle.endorsed_at
        commit = None
        if handle.committed_at and handle.ordered_at:
            commit = handle.committed_at - handle.ordered_at
        for name, value in ((STAGE_ENDORSE, endorse), (STAGE_ORDER, order),
                            (STAGE_COMMIT, commit)):
            if value is not None and value >= 0.0:
                self.registry.histogram(name).observe(value)
