"""Request-id assignment and trace events for pipeline operations."""

from __future__ import annotations

from typing import Any, Optional

from repro.common.events import EventBus
from repro.common.ids import IdGenerator
from repro.middleware.base import Handler, Middleware
from repro.middleware.context import Context


class RequestIdMiddleware(Middleware):
    """Assigns a deterministic request id and publishes trace events.

    Every operation entering the pipeline gets a stable ``req-N-hash``
    identifier (retries keep the id of the original request so a trace
    groups all attempts).  When an :class:`EventBus` is supplied, a
    ``pipeline.request`` event is published on entry and a
    ``pipeline.response`` / ``pipeline.error`` event on exit, carrying the
    request id — the hook a tracing backend or test can observe the whole
    request path through.
    """

    name = "request-id"

    def __init__(
        self,
        id_generator: Optional[IdGenerator] = None,
        events: Optional[EventBus] = None,
    ) -> None:
        self._ids = id_generator or IdGenerator("req")
        self.events = events

    def handle(self, ctx: Context, call_next: Handler) -> Any:
        if not ctx.request_id:
            ctx.request_id = self._ids.next()
        if self.events is not None:
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
            if self.events is not None:
                self.events.publish(
                    "pipeline.error",
                    {
                        "request_id": ctx.request_id,
                        "operation": ctx.operation,
                        "error": type(exc).__name__,
                    },
                )
            raise
        if self.events is not None:
            self.events.publish(
                "pipeline.response",
                {
                    "request_id": ctx.request_id,
                    "operation": ctx.operation,
                    "cache_hit": ctx.cache_hit,
                },
            )
        return result
