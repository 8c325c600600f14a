"""Request-id assignment and trace events for pipeline operations."""

from __future__ import annotations

from repro.common.events import EventBus
from repro.common.ids import IdGenerator
from repro.middleware.base import Handler, Middleware, Result
from repro.middleware.context import Context


class RequestIdMiddleware(Middleware):
    """Assigns a deterministic request id and publishes trace events.

    Every operation entering the pipeline gets a stable ``req-N-hash``
    identifier (retries keep the id of the original request so a trace
    groups all attempts).  On the :class:`EventBus` it is handed, a
    ``pipeline.request`` event is published on entry and a
    ``pipeline.response`` / ``pipeline.error`` event on exit, carrying the
    request id — the hook a tracing backend or test can observe the whole
    request path through.
    """

    name = "request-id"

    def __init__(self, events: EventBus) -> None:
        self._ids = IdGenerator("req")
        self.events = events

    def handle(self, ctx: Context, call_next: Handler) -> Result:
        if not ctx.request_id:
            ctx.request_id = self._ids.next()
        self.events.publish(
            "pipeline.request",
            {
                "request_id": ctx.request_id,
                "operation": ctx.operation,
                "function": ctx.function,
                "attempt": ctx.attempt,
            },
        )
        try:
            result = call_next(ctx)
        except Exception as exc:
            self.events.publish(
                "pipeline.error",
                {
                    "request_id": ctx.request_id,
                    "operation": ctx.operation,
                    "error": type(exc).__name__,
                },
            )
            raise
        self.events.publish(
            "pipeline.response",
            {
                "request_id": ctx.request_id,
                "operation": ctx.operation,
                "cache_hit": ctx.cache_hit,
            },
        )
        return result
