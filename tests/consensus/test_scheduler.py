"""Unit tests for the pluggable orderer intake schedulers."""

from collections import deque

import pytest
from hypothesis import example, given, seed, strategies as st

from repro.common.errors import ConfigurationError
from repro.consensus.batching import BatchConfig
from repro.consensus.scheduler import (
    FairShareScheduler,
    FifoScheduler,
    make_scheduler,
    tenant_of_key,
    tenant_of_transaction,
)
from repro.consensus.solo import SoloOrderingService
from repro.ledger.transaction import ReadWriteSet, Transaction
from repro.simulation.engine import SimulationEngine
from tests.property_budgets import budget


def make_tx(tx_id, key):
    rw_set = ReadWriteSet()
    rw_set.add_write(key, "v")
    return Transaction(
        tx_id=tx_id, channel="ch", chaincode="cc", function="set",
        args=[key], rw_set=rw_set,
    )


# ------------------------------------------------------------ tenant parsing
def test_tenant_of_key_parses_namespaced_keys():
    assert tenant_of_key("tenant/acme/item/1") == "acme"
    assert tenant_of_key("item/1") == ""
    assert tenant_of_key("tenant/loner") == ""  # no key below the prefix


def test_tenant_of_transaction_prefers_write_set():
    tx = make_tx("t1", "tenant/a/k")
    assert tenant_of_transaction(tx) == "a"
    bare = make_tx("t2", "plain/k")
    assert tenant_of_transaction(bare) == ""


# --------------------------------------------------------------------- fifo
def test_fifo_scheduler_preserves_arrival_order():
    scheduler = FifoScheduler()
    for i in range(5):
        scheduler.enqueue(make_tx(f"t{i}", f"tenant/a/k{i}"))
    order = [scheduler.next_transaction().tx_id for _ in range(5)]
    assert order == [f"t{i}" for i in range(5)]
    assert scheduler.next_transaction() is None
    assert scheduler.pending == 0


# --------------------------------------------------------------- fair share
def test_fair_share_interleaves_tenants_one_to_one():
    scheduler = FairShareScheduler()
    # Heavy tenant enqueues a 10x backlog before light's first arrival.
    for i in range(10):
        scheduler.enqueue(make_tx(f"h{i}", f"tenant/heavy/k{i}"))
    scheduler.enqueue(make_tx("l0", "tenant/light/k0"))
    scheduler.enqueue(make_tx("l1", "tenant/light/k1"))
    served = [scheduler.next_transaction() for _ in range(scheduler.pending)]
    light = [i for i, tx in enumerate(served) if tenant_of_transaction(tx) == "light"]
    # The light tenant is served within the first rounds, not after the
    # heavy backlog drains (FIFO would put it at positions 10 and 11).
    assert light == [1, 3]
    assert scheduler.served["heavy"] == 10


# ------------------------------------------------------------------ factory
def test_make_scheduler_names():
    assert isinstance(make_scheduler("fifo"), FifoScheduler)
    assert isinstance(make_scheduler("fair-share"), FairShareScheduler)
    with pytest.raises(ConfigurationError):
        make_scheduler("priority")


# ------------------------------------------------------------ orderer intake
def _consume(orderer, blocks):
    orderer.register_consumer(blocks.append)


def test_orderer_with_default_scheduler_matches_arrival_order():
    engine = SimulationEngine()
    orderer = SoloOrderingService(
        "o", engine, batch_config=BatchConfig(max_message_count=3)
    )
    blocks = []
    _consume(orderer, blocks)
    for i in range(3):
        orderer.submit(make_tx(f"t{i}", f"k{i}"))
    assert len(blocks) == 1
    assert [tx.tx_id for tx in blocks[0].transactions] == ["t0", "t1", "t2"]


def test_intake_interval_forms_backlog_and_drains_on_engine_run():
    engine = SimulationEngine()
    orderer = SoloOrderingService(
        "o", engine,
        batch_config=BatchConfig(max_message_count=4),
        intake_interval_s=0.1,
    )
    blocks = []
    _consume(orderer, blocks)
    for i in range(4):
        orderer.submit(make_tx(f"t{i}", f"k{i}"))
    # Nothing reached the cutter synchronously: all four queue at intake.
    assert orderer.intake_backlog == 4
    assert blocks == []
    engine.run_until_idle()
    assert blocks and [tx.tx_id for tx in blocks[0].transactions] == [
        "t0", "t1", "t2", "t3"
    ]
    # One envelope per interval: the batch completed at ~4 intervals.
    assert engine.now == pytest.approx(0.4)


def test_flush_drains_scheduler_backlog_immediately():
    engine = SimulationEngine()
    orderer = SoloOrderingService(
        "o", engine,
        batch_config=BatchConfig(max_message_count=100),
        intake_interval_s=0.5,
    )
    blocks = []
    _consume(orderer, blocks)
    for i in range(3):
        orderer.submit(make_tx(f"t{i}", f"k{i}"))
    orderer.flush()
    assert orderer.intake_backlog == 0
    assert len(blocks) == 1 and blocks[0].tx_count == 3


def test_set_scheduler_carries_backlog_over():
    engine = SimulationEngine()
    orderer = SoloOrderingService(
        "o", engine,
        batch_config=BatchConfig(max_message_count=100),
        intake_interval_s=1.0,
    )
    blocks = []
    _consume(orderer, blocks)
    orderer.submit(make_tx("t0", "tenant/a/k"))
    orderer.submit(make_tx("t1", "tenant/b/k"))
    assert orderer.intake_backlog == 2
    orderer.set_scheduler(FairShareScheduler())
    assert orderer.intake_backlog == 2
    orderer.flush()
    assert len(blocks) == 1 and blocks[0].tx_count == 2


# ------------------------------------------------------ round-robin oracle
class UnitWeightDRR:
    """Deficit round-robin with every tenant's weight 1 — the fair-share
    scheduler as it stood with weights, kept as the reference."""

    def __init__(self):
        self.queues = {}
        self.ring = deque()
        self.credit = {}

    def enqueue(self, tx):
        tenant = tenant_of_transaction(tx)
        queue = self.queues.setdefault(tenant, deque())
        if not queue:
            self.ring.append(tenant)
            self.credit[tenant] = 1.0
        queue.append(tx)

    def next_transaction(self):
        while self.ring:
            tenant = self.ring[0]
            queue = self.queues[tenant]
            if self.credit[tenant] >= 1.0:
                self.credit[tenant] -= 1.0
                tx = queue.popleft()
                if not queue:
                    self.ring.popleft()
                    del self.credit[tenant]
                return tx
            self.credit[tenant] += 1.0
            self.ring.rotate(-1)
        return None

    def drain(self):
        return list(iter(self.next_transaction, None))


TENANTS = ["", "a", "b", "c", "d"]

programs = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.sampled_from(TENANTS)),
        st.just(("next",)),
        st.just(("drain",)),
    ),
    max_size=60,
)


def run_program(scheduler, program, txs):
    """Replay ``program`` on ``scheduler``; every served transaction, in order."""
    served = []
    enqueued = iter(txs)
    for step in program:
        if step[0] == "enqueue":
            scheduler.enqueue(next(enqueued))
        elif step[0] == "next":
            served.append(scheduler.next_transaction())
        else:
            served.extend(scheduler.drain())
    return served


@seed(20261015)
@budget
@given(programs)
# The head's tenant still has a backlog when "b" joins mid-turn: "b" is
# served next, so a scheduler that rotates on the serving call fails here.
@example([("enqueue", "a"), ("enqueue", "a"), ("next",), ("enqueue", "b"), ("next",)])
def test_fair_share_serves_what_unit_weight_drr_serves(program):
    txs = [
        make_tx(f"t{i}", f"tenant/{step[1]}/k{i}" if step[1] else f"item/k{i}")
        for i, step in enumerate(s for s in program if s[0] == "enqueue")
    ]
    scheduler = FairShareScheduler()
    expected = run_program(UnitWeightDRR(), program, txs)
    served = run_program(scheduler, program, txs)
    assert len(served) == len(expected)
    assert all(got is want for got, want in zip(served, expected))
    assert scheduler.pending == len(txs) - sum(tx is not None for tx in served)


class EagerRoundRobin(FairShareScheduler):
    """Moves the head to the back on the call that serves it."""

    def next_transaction(self):
        if not self._ring:
            return None
        tenant = self._ring.popleft()
        queue = self._queues[tenant]
        tx = queue.popleft()
        if queue:
            self._ring.append(tenant)
        return tx


def test_eager_rotation_fails_the_oracle():
    """The oracle has teeth: rotating on the serving call is caught."""
    program = [("enqueue", "a"), ("enqueue", "a"), ("next",), ("enqueue", "b"), ("next",)]
    txs = [make_tx("a0", "tenant/a/k0"), make_tx("a1", "tenant/a/k1"),
           make_tx("b0", "tenant/b/k0")]
    expected = run_program(UnitWeightDRR(), program, txs)
    assert [tx.tx_id for tx in expected] == ["a0", "b0"]
    assert [tx.tx_id for tx in run_program(EagerRoundRobin(), program, txs)] == ["a0", "a1"]
    assert run_program(FairShareScheduler(), program, txs) == expected


def test_fair_share_joiner_goes_ahead_of_the_heads_next_turn():
    scheduler = FairShareScheduler()
    for tx_id, key in [("a0", "tenant/a/k0"), ("a1", "tenant/a/k1"),
                       ("b0", "tenant/b/k0"), ("c0", "tenant/c/k0")]:
        scheduler.enqueue(make_tx(tx_id, key))
    first = scheduler.next_transaction()
    scheduler.enqueue(make_tx("d0", "tenant/d/k0"))  # joins while "a" is mid-turn
    rest = scheduler.drain()
    # "d" queues behind everyone already waiting, ahead of a's second turn.
    assert [tx.tx_id for tx in [first, *rest]] == ["a0", "b0", "c0", "d0", "a1"]


def test_fair_share_idle_tenant_rejoins_at_the_back():
    scheduler = FairShareScheduler()
    scheduler.enqueue(make_tx("a0", "tenant/a/k0"))
    scheduler.enqueue(make_tx("b0", "tenant/b/k0"))
    scheduler.enqueue(make_tx("b1", "tenant/b/k1"))
    assert scheduler.next_transaction().tx_id == "a0"  # "a" goes idle
    scheduler.enqueue(make_tx("a1", "tenant/a/k1"))
    assert [tx.tx_id for tx in scheduler.drain()] == ["b0", "a1", "b1"]
    assert scheduler.pending == 0 and scheduler.next_transaction() is None
    assert scheduler.served == {"a": 2, "b": 2}


@pytest.mark.parametrize("prefix", ["item", "tenant/solo"])
def test_fair_share_with_one_tenant_is_arrival_order(prefix):
    fair, fifo = FairShareScheduler(), FifoScheduler()
    txs = [make_tx(f"t{i}", f"{prefix}/k{i}") for i in range(6)]
    for tx in txs:
        fair.enqueue(tx)
        fifo.enqueue(tx)
    assert fair.drain() == fifo.drain() == txs
