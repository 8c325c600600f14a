"""Pluggable intake scheduling for the ordering service.

Historically the orderer consumed submissions strictly in arrival order:
``submit()`` pushed every transaction straight into the block cutter, so a
tenant flooding the ordering path determined the composition of every
block until its backlog drained.  The intake is now a pluggable
:class:`OrderingScheduler` sitting between ``submit()`` and the cutter:

* :class:`FifoScheduler` — arrival order, byte-for-byte the historical
  behaviour (and the default).
* :class:`FairShareScheduler` — round-robin over per-tenant queues, no
  weights.  Each round every backlogged tenant places one transaction
  into the cutter, so a tenant submitting 10x the load cannot push the
  light tenants' transactions to the back of every block.

Tenants are recognised from the ledger-key namespace the tenant-prefix
middleware writes (``tenant/<name>/…``); un-namespaced traffic shares the
default ``""`` tenant and therefore one round-robin slot.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.common.tenancy import tenant_of_key  # noqa: F401 - re-exported
from repro.ledger.transaction import Transaction


def tenant_of_transaction(tx: Transaction) -> str:
    """Best-effort tenant attribution for one submitted transaction.

    The write set names the ledger keys authoritatively; proposals without
    writes (unusual for the ordering path) fall back to the first
    chaincode argument, which is the key for every ``set``-shaped invoke.
    """
    writes = tx.rw_set.writes
    if writes:
        return tenant_of_key(writes[0].key)
    if tx.args:
        return tenant_of_key(tx.args[0])
    return ""


class OrderingScheduler:
    """Decides the order in which submitted transactions reach the cutter."""

    name = "scheduler"

    def enqueue(self, tx: Transaction) -> None:
        raise NotImplementedError

    def next_transaction(self) -> Optional[Transaction]:
        """The next transaction to feed the block cutter (``None`` = empty)."""
        raise NotImplementedError

    @property
    def pending(self) -> int:
        raise NotImplementedError

    def drain(self) -> List[Transaction]:
        """Remove and return everything still queued (scheduler order)."""
        drained: List[Transaction] = []
        while True:
            tx = self.next_transaction()
            if tx is None:
                return drained
            drained.append(tx)


class FifoScheduler(OrderingScheduler):
    """Strict arrival order — the historical orderer intake."""

    name = "fifo"

    def __init__(self) -> None:
        self._queue: Deque[Transaction] = deque()

    def enqueue(self, tx: Transaction) -> None:
        self._queue.append(tx)

    def next_transaction(self) -> Optional[Transaction]:
        if not self._queue:
            return None
        return self._queue.popleft()

    @property
    def pending(self) -> int:
        return len(self._queue)


class FairShareScheduler(OrderingScheduler):
    """Round-robin over per-tenant intake queues.

    Backlogged tenants form a ring; each call serves one transaction of
    the tenant at its head.  The head moves to the back on the call
    *after* the one that served it, not on the serving call itself, so a
    tenant that joins while the head is mid-turn queues behind everyone
    already waiting but ahead of the head's next transaction.  The cutter
    therefore interleaves tenants 1:1 regardless of backlog ratios.  An
    idle tenant leaves the ring and rejoins at its back.
    """

    name = "fair-share"

    def __init__(self) -> None:
        #: Per-tenant FIFO queues, in tenant-arrival order.
        self._queues: Dict[str, Deque[Transaction]] = {}
        #: Round-robin ring of tenants with a backlog.
        self._ring: Deque[str] = deque()
        #: Whether the ring's head has been served this turn.
        self._head_served = False
        #: Transactions served per tenant (fairness introspection).
        self.served: Dict[str, int] = {}

    def enqueue(self, tx: Transaction) -> None:
        tenant = tenant_of_transaction(tx)
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        if not queue:
            self._ring.append(tenant)
        queue.append(tx)

    def next_transaction(self) -> Optional[Transaction]:
        ring = self._ring
        if not ring:
            return None
        if self._head_served:
            ring.rotate(-1)
        tenant = ring[0]
        queue = self._queues[tenant]
        tx = queue.popleft()
        self.served[tenant] = self.served.get(tenant, 0) + 1
        self._head_served = bool(queue)
        if not queue:
            ring.popleft()
        return tx

    @property
    def pending(self) -> int:
        return sum(len(queue) for queue in self._queues.values())


#: Scheduler names accepted by configs and the bench CLI.
SCHEDULER_NAMES = ("fifo", "fair-share")


def make_scheduler(name: str) -> OrderingScheduler:
    """Instantiate a scheduler by its config name."""
    if name == "fifo":
        return FifoScheduler()
    if name == "fair-share":
        return FairShareScheduler()
    raise ConfigurationError(
        f"unknown ordering scheduler {name!r} (choose from {SCHEDULER_NAMES})"
    )


def adopt_backlog(old: OrderingScheduler, new: OrderingScheduler) -> None:
    """Move any queued transactions from ``old`` into ``new`` on a swap."""
    for tx in old.drain():
        new.enqueue(tx)
