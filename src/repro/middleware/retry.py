"""Bounded retry with exponential backoff in virtual time."""

from __future__ import annotations

from typing import Optional, Tuple, Type

from repro.common.errors import (
    ConfigurationError,
    EndorsementError,
    NetworkError,
    OrderingError,
)
from repro.common.metrics import MetricsRegistry
from repro.middleware.base import Handler, Middleware, Result
from repro.middleware.context import Context
from repro.simulation.engine import SimulationEngine

#: Failures that are plausibly transient on a real Fabric network.
DEFAULT_RETRYABLE: Tuple[Type[Exception], ...] = (
    NetworkError,
    EndorsementError,
    OrderingError,
)
#: Virtual seconds before the first retry; each later retry waits
#: ``BACKOFF_MULTIPLIER`` times as long as the one before it.
BACKOFF_S = 0.05
BACKOFF_MULTIPLIER = 2.0


class RetryMiddleware(Middleware):
    """Re-runs the downstream chain on retryable errors, then gives up.

    Backoff is applied by advancing the context's virtual start time, so
    inside the discrete-event simulation a retry costs simulated seconds,
    not wall-clock sleeps.  Once attempts are exhausted the last error
    propagates unchanged (retry-gives-up propagation).
    """

    name = "retry"

    def __init__(
        self,
        max_attempts: int,
        engine: SimulationEngine,
        metrics: MetricsRegistry,
    ) -> None:
        if max_attempts < 1:
            raise ConfigurationError("retry needs at least one attempt")
        self.max_attempts = max_attempts
        self.engine = engine
        self.metrics = metrics

    def handle(self, ctx: Context, call_next: Handler) -> Result:
        last_error: Optional[Exception] = None
        for attempt in range(1, self.max_attempts + 1):
            ctx.attempt = attempt
            if attempt > 1:
                delay = BACKOFF_S * (BACKOFF_MULTIPLIER ** (attempt - 2))
                ctx.at_time = max(ctx.at_time or 0.0, self.engine.now) + delay
                self.metrics.counter("retry.attempts").inc()
            try:
                return call_next(ctx)
            except DEFAULT_RETRYABLE as exc:
                last_error = exc
        self.metrics.counter("retry.exhausted").inc()
        assert last_error is not None  # max_attempts >= 1 guarantees a raise above
        raise last_error
