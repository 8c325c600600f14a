"""Bounded retry with exponential backoff in virtual time."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple, Type

from repro.common.errors import (
    ConfigurationError,
    EndorsementError,
    NetworkError,
    OrderingError,
)
from repro.common.metrics import MetricsRegistry
from repro.middleware.base import Handler, Middleware
from repro.middleware.context import Context

#: Failures that are plausibly transient on a real Fabric network.
DEFAULT_RETRYABLE: Tuple[Type[Exception], ...] = (
    NetworkError,
    EndorsementError,
    OrderingError,
)


@dataclass
class RetryPolicy:
    """How many attempts to make and how long to back off between them."""

    max_attempts: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    retry_on: Tuple[Type[Exception], ...] = field(default=DEFAULT_RETRYABLE)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("retry policy needs at least one attempt")
        if self.backoff_s < 0 or self.multiplier < 1.0:
            raise ConfigurationError("backoff must be >= 0 and multiplier >= 1")

    def delay_before(self, attempt: int) -> float:
        """Backoff before the given (2-based) retry attempt."""
        return self.backoff_s * (self.multiplier ** max(0, attempt - 2))


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
        policy: Optional[RetryPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.policy = policy or RetryPolicy()
        self.clock = clock or (lambda: 0.0)
        self.metrics = metrics

    def handle(self, ctx: Context, call_next: Handler) -> Any:
        last_error: Optional[Exception] = None
        for attempt in range(1, self.policy.max_attempts + 1):
            ctx.attempt = attempt
            if attempt > 1:
                delay = self.policy.delay_before(attempt)
                ctx.at_time = max(ctx.at_time or 0.0, self.clock()) + delay
                ctx.timings[f"retry_backoff_{attempt}_s"] = delay
                if self.metrics is not None:
                    self.metrics.counter("retry.attempts").inc()
            try:
                return call_next(ctx)
            except self.policy.retry_on as exc:
                last_error = exc
        if self.metrics is not None:
            self.metrics.counter("retry.exhausted").inc()
        assert last_error is not None  # max_attempts >= 1 guarantees a raise above
        raise last_error
