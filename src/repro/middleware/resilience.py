"""Failure-handling middleware: store-and-forward.

One policy, off by default so fault-free pipelines keep byte-identical
virtual time; ``bench chaos``'s ``partition_heal`` and
``churn_fair_share`` scenarios (and ``examples/chaos_partition.py``)
exercise it:

* :class:`StoreAndForwardMiddleware` — degraded-mode writes: when the
  network is unreachable the write is queued locally and replayed on a
  virtual-time interval; callers receive a placeholder handle that
  completes when the replayed transaction commits (or is abandoned after
  ``max_replays``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.common.errors import ConfigurationError, NetworkError
from repro.common.metrics import MetricsRegistry
from repro.ledger.transaction import TxValidationCode
from repro.fabric.proposal import TransactionHandle
from repro.middleware.base import Handler, Middleware
from repro.middleware.context import Context
from repro.simulation.engine import SimulationEngine


@dataclass
class _QueuedWrite:
    """One write parked for replay, plus the handle its caller holds."""

    ctx: Context
    downstream: Handler
    placeholder: TransactionHandle
    attempts: int = 0


class StoreAndForwardMiddleware(Middleware):
    """Queue unreachable writes locally and replay them on a timer.

    A write failing with a network-class error (partition, crashed peers)
    is captured instead of propagated: the caller receives a *placeholder*
    :class:`TransactionHandle` at once, and a virtual-time replay loop
    re-runs the downstream chain every
    ``replay_interval_s`` until the write lands (the placeholder then
    mirrors the real handle — tx id, timings, commit — and completes) or
    ``max_replays`` attempts are exhausted (the placeholder completes
    ``INVALID_OTHER_REASON``, bounding the replay loop so a partition
    that never heals cannot keep the engine spinning forever).
    """

    name = "store-and-forward"

    #: The failure class that parks a write instead of propagating.
    QUEUE_ON = NetworkError

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
