"""Client-side query middleware: planner surfacing and plan metrics.

The planner itself runs inside the chaincode (it needs the peer's
world-state indexes); this middleware is its client-side counterpart.
For rich-query operations it surfaces the access path the planner chose —
the ``plan`` an explain-enabled response's page carries — into
``ctx.tags["query_plan"]`` and per-path metrics counters, so bench tables
and sessions can report which path served each query.

Enabled by the ``PipelineConfig.indexes`` knob, which also drives the
fabric-side index enablement (``FabricNetwork.enable_secondary_indexes``)
the same way ``order_batch_size`` and ``scheduler`` are applied.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Tuple

from repro.common.metrics import MetricsRegistry
from repro.middleware.base import Handler, Middleware
from repro.middleware.context import Context
from repro.query.indexes import validate_index_fields

#: Rich-query functions whose responses may carry a plan envelope.
PLANNED_FUNCTIONS = frozenset({"query", "getbyrange"})


class QueryPlannerMiddleware(Middleware):
    """Surface planner decisions for rich queries flowing through a pipeline."""

    name = "query-planner"

    def __init__(
        self,
        indexes: Iterable[str],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        #: The index fields this pipeline expects the deployment to maintain.
        self.indexes: Tuple[str, ...] = validate_index_fields(indexes)
        self.metrics = metrics

    # ------------------------------------------------------------- pipeline
    def handle(self, ctx: Context, call_next: Handler) -> Any:
        if ctx.function != "query" or not ctx.is_read or not ctx.args:
            return call_next(ctx)
        result = call_next(ctx)
        plan = self._extract_plan(result)
        if plan is not None:
            ctx.tags["query_plan"] = plan
            if self.metrics is not None:
                path = plan.get("access_path", "unknown")
                self.metrics.counter(f"query.plan.{path}").inc()
        return result

    @staticmethod
    def _extract_plan(result: Any) -> Optional[dict]:
        response = result[0] if isinstance(result, tuple) else result
        page = getattr(response, "scan", None)
        return page.plan if page is not None else None
