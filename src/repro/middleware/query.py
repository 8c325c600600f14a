"""Client-side query middleware: planner surfacing and plan metrics.

The planner itself runs inside the chaincode (it needs the peer's
world-state indexes); this middleware is its client-side counterpart.
For rich-query operations it counts the access path the planner chose —
the ``plan`` an explain-enabled response's page carries — in the
``query.plans`` counter, labelled by ``path``, so a session's export
reports which path served each query.

Enabled by the ``PipelineConfig.indexes`` knob, which also drives the
fabric-side index enablement (``FabricNetwork.enable_secondary_indexes``)
the same way ``order_batch_size`` and ``scheduler`` are applied.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.common.metrics import MetricsRegistry
from repro.middleware.base import Handler, Middleware, Result
from repro.middleware.context import Context
from repro.query.indexes import validate_index_fields


class QueryPlannerMiddleware(Middleware):
    """Surface planner decisions for rich queries flowing through a pipeline."""

    name = "query-planner"

    def __init__(self, indexes: Iterable[str], metrics: MetricsRegistry) -> None:
        #: The index fields this pipeline expects the deployment to maintain.
        self.indexes: Tuple[str, ...] = validate_index_fields(indexes)
        self.metrics = metrics

    # ------------------------------------------------------------- pipeline
    def handle(self, ctx: Context, call_next: Handler) -> Result:
        if ctx.function != "query" or not ctx.is_read or not ctx.args:
            return call_next(ctx)
        result = call_next(ctx)
        page = result[0].scan
        if page is not None and page.plan is not None:
            path = page.plan.get("access_path", "unknown")
            self.metrics.counter("query.plans", path=path).inc()
        return result
