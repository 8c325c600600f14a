"""Failure-handling middlewares: deadlines, circuit breaking, store-and-forward.

Three composable policies the chaos scenarios exercise, all off by
default so fault-free pipelines keep byte-identical virtual time:

* :class:`DeadlineMiddleware` — stamps an absolute virtual-time budget on
  every operation (``ctx.tags["deadline_at"]``).  The retry middleware
  abandons backoffs past it, the submit-to-orderer stage refuses arrivals
  past it, and reads that finish late raise
  :class:`~repro.common.errors.DeadlineExceededError` instead of quietly
  returning after the caller gave up.
* :class:`CircuitBreakerMiddleware` — classic closed→open→half-open
  breaker, one state machine per backend key (the routed shard).  Sits at
  the bottom of the chain so cache hits never touch it and every routed
  attempt is observed.
* :class:`StoreAndForwardMiddleware` — degraded-mode writes: when the
  network is unreachable the write is queued locally and replayed on a
  virtual-time interval; callers receive a placeholder handle that
  completes when the replayed transaction commits (or is abandoned after
  ``max_replays``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.common.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    NetworkError,
)
from repro.common.metrics import MetricsRegistry
from repro.ledger.transaction import TxValidationCode
from repro.fabric.proposal import TransactionHandle
from repro.middleware.base import Handler, Middleware
from repro.middleware.context import Context
from repro.middleware.retry import DEFAULT_RETRYABLE
from repro.simulation.engine import SimulationEngine


class DeadlineMiddleware(Middleware):
    """Thread a per-request virtual-time budget through the chain."""

    name = "deadline"

    def __init__(
        self,
        deadline_s: float,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if deadline_s <= 0:
            raise ConfigurationError("deadline_s must be > 0")
        self.deadline_s = deadline_s
        self.clock = clock or (lambda: 0.0)
        self.metrics = metrics

    def handle(self, ctx: Context, call_next: Handler) -> Any:
        start = ctx.at_time if ctx.at_time is not None else self.clock()
        deadline_at = start + self.deadline_s
        ctx.tags["deadline_at"] = deadline_at
        result = call_next(ctx)
        if ctx.is_read and isinstance(result, tuple) and len(result) == 2:
            latency = float(result[1])
            if start + latency > deadline_at:
                if self.metrics is not None:
                    self.metrics.counter("deadline.read_exceeded").inc()
                raise DeadlineExceededError(
                    f"read {ctx.function!r} finished at t={start + latency:.4f}s, "
                    f"past its deadline t={deadline_at:.4f}s",
                    deadline_at=deadline_at,
                )
        return result


@dataclass
class BreakerState:
    """One backend's breaker: consecutive failures and the open window."""

    state: str = "closed"  # "closed" | "open" | "half-open"
    failures: int = 0
    opened_until: float = 0.0


class CircuitBreakerMiddleware(Middleware):
    """Per-backend closed→open→half-open circuit breaker.

    Keyed on the routed shard (``ctx.tags["shard"]``, 0 when unrouted).
    ``failure_threshold`` consecutive trip-class failures open the
    circuit; while open every call is rejected with
    :class:`CircuitOpenError` without touching the backend.  After
    ``cooldown_s`` of virtual time one probe call is let through
    (half-open): success closes the circuit, failure re-opens it for
    another cooldown.
    """

    name = "circuit-breaker"

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 1.0,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[MetricsRegistry] = None,
        trip_on: Tuple[Type[Exception], ...] = DEFAULT_RETRYABLE,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError("circuit failure_threshold must be >= 1")
        if cooldown_s <= 0:
            raise ConfigurationError("circuit cooldown_s must be > 0")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.clock = clock or (lambda: 0.0)
        self.metrics = metrics
        self.trip_on = trip_on
        self._breakers: Dict[Any, BreakerState] = {}

    def breaker(self, key: Any = 0) -> BreakerState:
        """The (lazily created) breaker state for one backend key."""
        return self._breakers.setdefault(key, BreakerState())

    def handle(self, ctx: Context, call_next: Handler) -> Any:
        key = ctx.tags.get("shard", 0)
        breaker = self.breaker(key)
        now = ctx.at_time if ctx.at_time is not None else self.clock()
        if breaker.state == "open":
            if now < breaker.opened_until:
                if self.metrics is not None:
                    self.metrics.counter("circuit.rejected").inc()
                raise CircuitOpenError(key, breaker.opened_until)
            breaker.state = "half-open"
            if self.metrics is not None:
                self.metrics.counter("circuit.half_open_probes").inc()
        try:
            result = call_next(ctx)
        except self.trip_on:
            self._record_failure(breaker, now)
            raise
        if breaker.state != "closed":
            breaker.state = "closed"
            if self.metrics is not None:
                self.metrics.counter("circuit.closed").inc()
        breaker.failures = 0
        return result

    def _record_failure(self, breaker: BreakerState, now: float) -> None:
        if breaker.state == "half-open":
            # The probe failed: straight back to open, fresh cooldown.
            breaker.state = "open"
            breaker.opened_until = now + self.cooldown_s
            if self.metrics is not None:
                self.metrics.counter("circuit.reopened").inc()
            return
        breaker.failures += 1
        if breaker.failures >= self.failure_threshold:
            breaker.state = "open"
            breaker.opened_until = now + self.cooldown_s
            if self.metrics is not None:
                self.metrics.counter("circuit.opened").inc()


@dataclass
class _QueuedWrite:
    """One write parked for replay, plus the handle its caller holds."""

    ctx: Context
    downstream: Handler
    placeholder: TransactionHandle
    attempts: int = 0


class StoreAndForwardMiddleware(Middleware):
    """Queue unreachable writes locally and replay them on a timer.

    A write failing with a network-class error (partition, crashed peers,
    open circuit downstream) is captured instead of propagated: the
    caller receives a *placeholder* :class:`TransactionHandle` at once,
    and a virtual-time replay loop re-runs the downstream chain every
    ``replay_interval_s`` until the write lands (the placeholder then
    mirrors the real handle — tx id, timings, commit — and completes) or
    ``max_replays`` attempts are exhausted (the placeholder completes
    ``INVALID_OTHER_REASON``, bounding the replay loop so a partition
    that never heals cannot keep the engine spinning forever).

    The request's deadline budget is deliberately dropped on queueing: a
    store-and-forward accept means "this write will be delivered when
    connectivity returns", not "within the original budget".
    """

    name = "store-and-forward"

    #: Failures that park a write instead of propagating.
    QUEUE_ON: Tuple[Type[Exception], ...] = (NetworkError, CircuitOpenError)

    def __init__(
        self,
        engine: SimulationEngine,
        replay_interval_s: float = 0.5,
        max_replays: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if replay_interval_s <= 0:
            raise ConfigurationError("saf replay_interval_s must be > 0")
        if max_replays < 1:
            raise ConfigurationError("saf max_replays must be >= 1")
        self.engine = engine
        self.replay_interval_s = replay_interval_s
        self.max_replays = max_replays
        self.metrics = metrics
        self._queue: List[_QueuedWrite] = []
        self._replay_event = None
        self._sequence = 0

    @property
    def queued(self) -> int:
        """Writes currently parked awaiting replay."""
        return len(self._queue)

    def handle(self, ctx: Context, call_next: Handler) -> Any:
        if not ctx.is_write:
            return call_next(ctx)
        try:
            return call_next(ctx)
        except self.QUEUE_ON:
            return self._park(ctx, call_next)

    def _park(self, ctx: Context, downstream: Handler) -> TransactionHandle:
        start = ctx.at_time if ctx.at_time is not None else self.engine.now
        self._sequence += 1
        placeholder = TransactionHandle(
            tx_id=f"saf-{self._sequence}",
            submitted_at=start,
            function=ctx.function,
        )
        placeholder.timings["saf_queued_at_s"] = self.engine.now
        # The budget covered the original attempt, not the replay loop.
        ctx.tags.pop("deadline_at", None)
        self._queue.append(_QueuedWrite(ctx=ctx, downstream=downstream, placeholder=placeholder))
        if self.metrics is not None:
            self.metrics.counter("saf.queued").inc()
        self._arm_replay()
        return placeholder

    def _arm_replay(self) -> None:
        if self._replay_event is None and self._queue:
            self._replay_event = self.engine.schedule_in(
                self.replay_interval_s, self._replay_tick, label="saf:replay"
            )

    def _replay_tick(self) -> None:
        self._replay_event = None
        pending, self._queue = self._queue, []
        for entry in pending:
            entry.attempts += 1
            entry.ctx.at_time = self.engine.now
            try:
                real = entry.downstream(entry.ctx)
            except self.QUEUE_ON:
                if entry.attempts >= self.max_replays:
                    entry.placeholder.timings["saf_replays"] = float(entry.attempts)
                    entry.placeholder.complete(
                        self.engine.now, TxValidationCode.INVALID_OTHER_REASON
                    )
                    if self.metrics is not None:
                        self.metrics.counter("saf.abandoned").inc()
                    continue
                self._queue.append(entry)
                continue
            self._bind(entry, real)
            if self.metrics is not None:
                self.metrics.counter("saf.replayed").inc()
        self._arm_replay()

    @staticmethod
    def _bind(entry: _QueuedWrite, real: Any) -> None:
        """Mirror the replayed transaction's life cycle onto the placeholder."""
        placeholder = entry.placeholder
        if not isinstance(real, TransactionHandle):
            # Downstream returned something unexpected (a custom terminal):
            # count the replay delivered and complete the placeholder now.
            placeholder.complete(placeholder.submitted_at, TxValidationCode.VALID)
            return

        def _mirror(done: TransactionHandle, placeholder=placeholder, attempts=entry.attempts) -> None:
            placeholder.tx_id = done.tx_id
            placeholder.endorsed_at = done.endorsed_at
            placeholder.ordered_at = done.ordered_at
            placeholder.response_payload = done.response_payload
            placeholder.timings.update(done.timings)
            placeholder.timings["saf_replays"] = float(attempts)
            placeholder.complete(
                done.committed_at,
                done.validation_code,
                block_number=done.commit_block,
            )

        real.on_complete(_mirror)

    def close(self) -> None:
        if self._replay_event is not None:
            self._replay_event.cancel()
            self._replay_event = None
