"""Ledger data structures.

Mirrors Hyperledger Fabric's ledger layout: an append-only chain of blocks
(each carrying ordered transactions and a hash link to its predecessor), a
*world state* — the latest value and version of every key — and a history
index that records every committed write to a key so chaincode can serve
``GetHistoryForKey`` queries, which is how HyperProv retrieves the
operation history of a data item.
"""

from repro.ledger.transaction import (
    ReadSetEntry,
    WriteSetEntry,
    ReadWriteSet,
    Endorsement,
    Transaction,
    TxValidationCode,
)
from repro.ledger.block import Block, BlockHeader
from repro.ledger.world_state import WorldState, VersionedValue
from repro.ledger.scan import HistoryPage, ScanPage
from repro.ledger.history import HistoryDatabase, HistoryEntry
from repro.ledger.blockchain import BlockStore

__all__ = [
    "ReadSetEntry",
    "WriteSetEntry",
    "ReadWriteSet",
    "Endorsement",
    "Transaction",
    "TxValidationCode",
    "Block",
    "BlockHeader",
    "WorldState",
    "VersionedValue",
    "ScanPage",
    "HistoryPage",
    "HistoryDatabase",
    "HistoryEntry",
    "BlockStore",
]
