"""Tests for block cutting and the Solo ordering service."""

import pytest

from repro.common.errors import ConfigurationError, OrderingError
from repro.consensus.batching import BatchConfig, BlockCutter
from repro.consensus.solo import SoloOrderingService
from repro.ledger.transaction import ReadWriteSet, Transaction
from repro.simulation.engine import SimulationEngine


def make_tx(tx_id: str, payload: str = "v") -> Transaction:
    rw_set = ReadWriteSet()
    rw_set.add_write(tx_id, payload)
    return Transaction(
        tx_id=tx_id, channel="ch", chaincode="cc", function="set",
        args=[tx_id, payload], rw_set=rw_set,
    )


# -------------------------------------------------------------------- batching
def test_batch_config_validation():
    with pytest.raises(ConfigurationError):
        BatchConfig(max_message_count=0).validate()
    with pytest.raises(ConfigurationError):
        BatchConfig(preferred_max_bytes=10).validate()
    with pytest.raises(ConfigurationError):
        BatchConfig(batch_timeout_s=0).validate()


def test_cutter_cuts_on_message_count():
    cutter = BlockCutter(BatchConfig(max_message_count=3))
    assert cutter.add(make_tx("t1"), now=0.0) is None
    assert cutter.add(make_tx("t2"), now=0.1) is None
    batch = cutter.add(make_tx("t3"), now=0.2)
    assert batch is not None and len(batch) == 3
    assert cutter.add(make_tx("t4"), now=0.3) is None  # the cut left nothing pending


def test_cutter_cuts_on_byte_limit():
    cutter = BlockCutter(BatchConfig(max_message_count=100, preferred_max_bytes=2048))
    batch = None
    for i in range(10):
        batch = cutter.add(make_tx(f"t{i}", payload="x" * 600), now=0.0)
        if batch:
            break
    assert batch is not None
    assert len(batch) < 10


def test_cutter_oversized_transaction_goes_alone():
    cutter = BlockCutter(BatchConfig(max_message_count=10, preferred_max_bytes=2048))
    batch = cutter.add(make_tx("big", payload="x" * 10_000), now=0.0)
    assert batch is not None
    assert [tx.tx_id for tx in batch] == ["big"]


def test_cutter_timeout_cut():
    cutter = BlockCutter(BatchConfig(max_message_count=10, batch_timeout_s=2.0))
    cutter.add(make_tx("t1"), now=0.0)
    assert cutter.check_timeout(now=1.0) is None
    batch = cutter.check_timeout(now=2.5)
    assert batch is not None and len(batch) == 1


def test_cutter_timeout_deadline_and_flush():
    cutter = BlockCutter(BatchConfig(batch_timeout_s=1.5))
    assert cutter.next_timeout_deadline() is None
    cutter.add(make_tx("t1"), now=3.0)
    assert cutter.next_timeout_deadline() == pytest.approx(4.5)
    batch = cutter.flush()
    assert batch is not None
    assert cutter.flush() is None


# ------------------------------------------------------------------------ solo
def test_solo_orderer_cuts_block_on_count():
    engine = SimulationEngine()
    orderer = SoloOrderingService("orderer", engine, BatchConfig(max_message_count=2))
    blocks = []
    orderer.register_consumer(blocks.append)
    orderer.submit(make_tx("t1"))
    orderer.submit(make_tx("t2"))
    assert len(blocks) == 1
    assert blocks[0].tx_count == 2
    assert blocks[0].number == 0


def test_solo_orderer_requires_consumer():
    engine = SimulationEngine()
    orderer = SoloOrderingService("orderer", engine, BatchConfig(max_message_count=1))
    with pytest.raises(OrderingError):
        orderer.submit(make_tx("t1"))


def test_solo_orderer_timeout_cuts_partial_batch():
    engine = SimulationEngine()
    orderer = SoloOrderingService(
        "orderer", engine, BatchConfig(max_message_count=10, batch_timeout_s=1.0)
    )
    blocks = []
    orderer.register_consumer(blocks.append)
    orderer.submit(make_tx("t1"))
    assert blocks == []
    engine.run_until_idle()
    assert len(blocks) == 1
    assert engine.now >= 1.0


def test_solo_orderer_blocks_are_hash_linked():
    engine = SimulationEngine()
    orderer = SoloOrderingService("orderer", engine, BatchConfig(max_message_count=1))
    blocks = []
    orderer.register_consumer(blocks.append)
    for i in range(3):
        orderer.submit(make_tx(f"t{i}"))
    assert [b.number for b in blocks] == [0, 1, 2]
    assert blocks[1].header.previous_hash == blocks[0].hash
    assert blocks[2].header.previous_hash == blocks[1].hash


def test_solo_orderer_flush_delivers_pending():
    engine = SimulationEngine()
    orderer = SoloOrderingService("orderer", engine, BatchConfig(max_message_count=100))
    blocks = []
    orderer.register_consumer(blocks.append)
    orderer.submit(make_tx("t1"))
    orderer.flush()
    assert len(blocks) == 1


def test_solo_orderer_with_delay_defers_delivery():
    engine = SimulationEngine()
    orderer = SoloOrderingService(
        "orderer", engine, BatchConfig(max_message_count=1), ordering_delay_s=0.5
    )
    blocks = []
    orderer.register_consumer(blocks.append)
    orderer.submit(make_tx("t1"))
    assert blocks == []
    engine.run_until_idle()
    assert len(blocks) == 1
    assert engine.now == pytest.approx(0.5)


def test_solo_orderer_metrics_and_counters():
    engine = SimulationEngine()
    orderer = SoloOrderingService("orderer", engine, BatchConfig(max_message_count=2))
    orderer.register_consumer(lambda block: None)
    for i in range(4):
        orderer.submit(make_tx(f"t{i}"))
    assert orderer.blocks_delivered == 2
    assert orderer.transactions_ordered == 4
