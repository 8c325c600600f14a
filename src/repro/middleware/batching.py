"""Endorsement batcher: coalesce endorsed envelopes into one submission."""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.common.errors import ConfigurationError
from repro.middleware.base import Handler, Middleware, Result
from repro.middleware.context import Context


class EndorsementBatcher(Middleware):
    """Holds endorsed transactions and releases them as one orderer send.

    Sits between the collect-endorsements and submit-to-orderer stages of
    the Fabric invoke pipeline.  With ``batch_size <= 1`` it is a pure
    passthrough (byte-for-byte the unbatched behaviour).  With a larger
    batch size, endorsed envelopes queue client-side until the batch fills
    (or :meth:`flush` is called at drain time); the whole batch then
    crosses the wire to the orderer as a single transfer, so the per-
    transaction network overhead is paid once per batch — the client-side
    mirror of the orderer's own block batching.
    """

    name = "endorsement-batcher"

    def __init__(self, shard: Any, batch_size: int) -> None:
        if batch_size < 1:
            raise ConfigurationError("batch size must be at least 1")
        #: The ChannelShard this batcher serves (one batcher per channel;
        #: duck-typed: the fabric package imports this one).
        self.shard = shard
        self.batch_size = batch_size
        self._pending: List[Tuple[Context, Handler]] = []

    # ------------------------------------------------------------- pipeline
    def handle(self, ctx: Context, call_next: Handler) -> Result:
        if self.batch_size <= 1:
            return call_next(ctx)
        self._pending.append((ctx, call_next))
        self.shard.fabric.metrics.gauge("batcher.queued").set(float(len(self._pending)))
        if len(self._pending) >= self.batch_size:
            self.flush()
        # The handle was created before the pipeline ran; the caller keeps
        # observing it, so deferring the downstream stages is transparent.
        return ctx.tags["invoke"].handle

    # ---------------------------------------------------------------- flush
    def flush(self) -> int:
        """Release every queued envelope as one coalesced submission."""
        if not self._pending:
            return 0
        batch, self._pending = self._pending, []
        states = [ctx.tags["invoke"] for ctx, _ in batch]
        send_at = max(state.assembled_at for state in states)
        # A drain-time flush happens after virtual time moved past the
        # assembly times; the batch leaves the client no earlier than now.
        send_at = max(send_at, self.shard.engine.now)
        total_bytes = sum(state.transaction.size_bytes for state in states)
        for ctx, call_next in batch:
            state = ctx.tags["invoke"]
            transfer = self.shard.network.estimate_transfer_time(
                state.client_context.host_node,
                self.shard.orderer_node,
                total_bytes,
            )
            ctx.tags["order_arrival"] = send_at + transfer
            call_next(ctx)
        metrics = self.shard.fabric.metrics
        metrics.counter("batcher.flushes").inc()
        metrics.histogram("batcher.batch_size").observe(float(len(batch)))
        metrics.gauge("batcher.queued").set(0.0)
        return len(batch)

    @property
    def queued(self) -> int:
        return len(self._pending)

    def close(self) -> None:
        self.flush()
