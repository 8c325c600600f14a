"""Block cutting: grouping transactions into batches.

Fabric's orderer cuts a block when any of three conditions is met:
``MaxMessageCount`` transactions are pending, the pending batch exceeds
``PreferredMaxBytes``, or ``BatchTimeout`` elapses after the first pending
transaction arrived.  The same three knobs are exposed here and swept by
the batching ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import ConfigurationError
from repro.ledger.transaction import Transaction


@dataclass(frozen=True)
class BatchConfig:
    """Orderer batching parameters (Fabric ``BatchSize``/``BatchTimeout``)."""

    max_message_count: int = 10
    preferred_max_bytes: int = 512 * 1024
    batch_timeout_s: float = 2.0

    def validate(self) -> None:
        if self.max_message_count < 1:
            raise ConfigurationError("max_message_count must be >= 1")
        if self.preferred_max_bytes < 1024:
            raise ConfigurationError("preferred_max_bytes must be >= 1 KiB")
        if self.batch_timeout_s <= 0:
            raise ConfigurationError("batch_timeout_s must be positive")


class BlockCutter:
    """Accumulates transactions and decides when a batch is complete."""

    def __init__(self, config: BatchConfig) -> None:
        config.validate()
        self.config = config
        self._pending: List[Transaction] = []
        self._pending_bytes = 0
        self._first_pending_at: Optional[float] = None
        self.batches_cut = 0

    def add(self, tx: Transaction, now: float) -> Optional[List[Transaction]]:
        """Add a transaction; return a completed batch if one was cut.

        An oversized transaction (alone larger than ``preferred_max_bytes``)
        is cut into its own batch immediately, matching Fabric's behaviour.
        """
        tx_bytes = tx.size_bytes
        if tx_bytes >= self.config.preferred_max_bytes:
            # Flush whatever is pending first so ordering is preserved,
            # then emit the oversized transaction as a singleton batch.
            leftover = self._cut() if self._pending else []
            self.batches_cut += 1
            if leftover:
                # Two batches result; the caller gets them concatenated in
                # order via a sentinel second call.  Keep it simple: return
                # the pending batch and stash the big tx as the new pending
                # batch to be cut on the next check.
                self._pending = [tx]
                self._pending_bytes = tx_bytes
                self._first_pending_at = now
                return leftover
            return [tx]

        if not self._pending:
            self._first_pending_at = now
        self._pending.append(tx)
        self._pending_bytes += tx_bytes

        if len(self._pending) >= self.config.max_message_count:
            return self._cut()
        if self._pending_bytes >= self.config.preferred_max_bytes:
            return self._cut()
        return None

    def check_timeout(self, now: float) -> Optional[List[Transaction]]:
        """Cut the pending batch if the batch timeout has expired."""
        if not self._pending or self._first_pending_at is None:
            return None
        if now - self._first_pending_at >= self.config.batch_timeout_s - 1e-9:
            return self._cut()
        return None

    def flush(self) -> Optional[List[Transaction]]:
        """Force-cut whatever is pending (used at simulation shutdown)."""
        if not self._pending:
            return None
        return self._cut()

    def _cut(self) -> List[Transaction]:
        batch = self._pending
        self._pending = []
        self._pending_bytes = 0
        self._first_pending_at = None
        self.batches_cut += 1
        return batch

    def next_timeout_deadline(self) -> Optional[float]:
        """Absolute virtual time at which the pending batch must be cut."""
        if self._first_pending_at is None:
            return None
        return self._first_pending_at + self.config.batch_timeout_s
