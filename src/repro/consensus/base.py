"""Common ordering-service machinery: batch → block assembly and delivery."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Optional

from repro.common.errors import ConfigurationError, OrderingError
from repro.common.metrics import MetricsRegistry
from repro.consensus.batching import BatchConfig, BlockCutter
from repro.consensus.scheduler import (
    FifoScheduler,
    OrderingScheduler,
    adopt_backlog,
)
from repro.ledger.block import Block
from repro.ledger.blockchain import GENESIS_PREVIOUS_HASH
from repro.ledger.transaction import Transaction
from repro.simulation.engine import SimulationEngine

BlockConsumer = Callable[[Block], None]


class OrderingService(ABC):
    """Base class for ordering services.

    Subclasses implement :meth:`_order_batch`, which takes a cut batch and
    must eventually call :meth:`_deliver_block` (immediately for Solo,
    after replication for Raft).

    Intake runs through a pluggable :class:`OrderingScheduler`: every
    ``submit`` enqueues, and the pump feeds the block cutter in scheduler
    order.  With the default FIFO scheduler and no intake interval the
    pump is synchronous and reproduces the historical arrival-order
    behaviour exactly.  ``intake_interval_s`` models the orderer's
    per-envelope processing cost (signature check, channel mux, re-wrap):
    when positive, the pump drains one transaction per interval, so a
    backlog can form and the scheduler's ordering policy becomes visible.
    """

    def __init__(
        self,
        name: str,
        engine: SimulationEngine,
        batch_config: Optional[BatchConfig] = None,
        scheduler: Optional[OrderingScheduler] = None,
        intake_interval_s: float = 0.0,
    ) -> None:
        if intake_interval_s < 0:
            raise ConfigurationError("intake_interval_s must be >= 0")
        self.name = name
        self.engine = engine
        self.batch_config = batch_config or BatchConfig()
        self.cutter = BlockCutter(self.batch_config)
        self.metrics = MetricsRegistry(component="orderer", orderer=name)
        self.scheduler: OrderingScheduler = scheduler or FifoScheduler()
        self.intake_interval_s = intake_interval_s
        self._consumers: List[BlockConsumer] = []
        self._next_block_number = 0
        self._previous_hash = GENESIS_PREVIOUS_HASH
        self._timeout_event = None
        self._pump_event = None
        self._stalled = False

    # ---------------------------------------------------------------- wiring
    def register_consumer(self, consumer: BlockConsumer) -> None:
        """Register a callback invoked with every newly ordered block."""
        self._consumers.append(consumer)

    def set_scheduler(self, scheduler: OrderingScheduler) -> None:
        """Swap the intake scheduler, preserving any queued backlog."""
        adopt_backlog(self.scheduler, scheduler)
        self.scheduler = scheduler

    # ---------------------------------------------------------------- intake
    def submit(self, tx: Transaction) -> None:
        """Submit a transaction for ordering."""
        self.metrics.counter("submitted").inc()
        self.scheduler.enqueue(tx)
        self._pump()

    def stall(self) -> None:
        """Freeze intake (fault injection): submissions queue but are not
        fed to the cutter, modelling an orderer whose ingest path wedged.

        Already-cut batches still deliver and the batch timeout still
        fires — only the scheduler→cutter pump stops.  ``flush`` becomes a
        no-op while stalled, so a drain leaves the backlog in place and
        reports ``"deadlock"`` instead of silently ordering it.
        """
        if self._stalled:
            return
        self._stalled = True
        if self._pump_event is not None:
            self._pump_event.cancel()
            self._pump_event = None
        self.metrics.counter("stalls").inc()

    def resume(self) -> None:
        """Un-freeze intake and pump any backlog that accumulated."""
        if not self._stalled:
            return
        self._stalled = False
        self._pump()

    @property
    def stalled(self) -> bool:
        return self._stalled

    def _pump(self) -> None:
        """Feed queued transactions from the scheduler into the cutter."""
        if self._stalled:
            return
        if self.intake_interval_s <= 0:
            while True:
                tx = self.scheduler.next_transaction()
                if tx is None:
                    break
                self._cut_through(tx)
            self._arm_timeout()
            return
        if self._pump_event is None and self.scheduler.pending:
            self._pump_event = self.engine.schedule_in(
                self.intake_interval_s, self._pump_tick, label=f"{self.name}:intake"
            )

    def _pump_tick(self) -> None:
        self._pump_event = None
        tx = self.scheduler.next_transaction()
        if tx is not None:
            self._cut_through(tx)
            self._arm_timeout()
        if self.scheduler.pending:
            self._pump_event = self.engine.schedule_in(
                self.intake_interval_s, self._pump_tick, label=f"{self.name}:intake"
            )

    def _cut_through(self, tx: Transaction) -> None:
        for batch in self.cutter.add(tx, now=self.engine.now):
            self._order_batch(batch)

    def _arm_timeout(self) -> None:
        """(Re)arm the batch-timeout event for the currently pending batch."""
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None
        deadline = self.cutter.next_timeout_deadline()
        if deadline is None:
            return
        self._timeout_event = self.engine.schedule_at(
            deadline, self._on_timeout, label=f"{self.name}:batch-timeout"
        )

    def _on_timeout(self) -> None:
        self._timeout_event = None
        batch = self.cutter.check_timeout(now=self.engine.now)
        if batch:
            self._order_batch(batch)
        self._arm_timeout()

    def flush(self) -> None:
        """Cut and order any pending transactions immediately.

        Drains the intake scheduler (regardless of any intake interval)
        into the cutter first, then force-cuts — the drain-time semantics
        benchmarks rely on.  A stalled orderer refuses to flush: the
        backlog stays queued until :meth:`resume`.
        """
        if self._stalled:
            return
        if self._pump_event is not None:
            self._pump_event.cancel()
            self._pump_event = None
        while True:
            tx = self.scheduler.next_transaction()
            if tx is None:
                break
            self._cut_through(tx)
        batch = self.cutter.flush()
        if batch:
            self._order_batch(batch)

    @property
    def intake_backlog(self) -> int:
        """Transactions submitted but not yet fed to the block cutter."""
        return self.scheduler.pending

    # -------------------------------------------------------------- delivery
    def _assemble_block(self, batch: List[Transaction]) -> Block:
        block = Block.build(
            number=self._next_block_number,
            previous_hash=self._previous_hash,
            transactions=batch,
            timestamp=self.engine.now,
            orderer=self.name,
        )
        self._next_block_number += 1
        self._previous_hash = block.hash
        return block

    def _deliver_block(self, block: Block) -> None:
        if not self._consumers:
            raise OrderingError(
                f"ordering service {self.name!r} has no registered block consumers"
            )
        self.metrics.histogram("block_size_txs").observe(block.tx_count)
        for consumer in self._consumers:
            consumer(block)

    # -------------------------------------------------------------- abstract
    @abstractmethod
    def _order_batch(self, batch: List[Transaction]) -> None:
        """Order one cut batch; must eventually deliver exactly one block."""
