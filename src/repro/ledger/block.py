"""Blocks: header, transaction list and hash chaining."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.hashing import sha256_hex
from repro.common.serialization import canonical_json
from repro.crypto.merkle import MerkleTree
from repro.ledger.transaction import Transaction, TxValidationCode


@dataclass(frozen=True)
class BlockHeader:
    """Immutable block header (number, previous hash, data hash)."""

    number: int
    previous_hash: str
    data_hash: str
    timestamp: float

    def digest(self) -> str:
        """Hash of the header; this is "the block hash" referenced by children.

        Memoized — the header is frozen, and the chain link check recomputes
        the previous block's hash on every append otherwise.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = sha256_hex(
                canonical_json(
                    {
                        "number": self.number,
                        "previous_hash": self.previous_hash,
                        "data_hash": self.data_hash,
                        "timestamp": self.timestamp,
                    }
                )
            )
            object.__setattr__(self, "_digest", cached)
        return cached


@dataclass
class Block:
    """An ordered batch of transactions plus validation metadata.

    ``validation_flags`` is filled in by the committing peer (one code per
    transaction), mirroring Fabric's block metadata; the orderer leaves it
    empty.
    """

    header: BlockHeader
    transactions: List[Transaction]
    validation_flags: List[TxValidationCode] = field(default_factory=list)
    orderer: str = ""
    _size: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        number: int,
        previous_hash: str,
        transactions: List[Transaction],
        timestamp: float,
        orderer: str = "",
    ) -> "Block":
        """Assemble a block, computing the Merkle data hash over the txs."""
        tree = MerkleTree.from_leaf_hashes([tx.digest() for tx in transactions])
        header = BlockHeader(
            number=number,
            previous_hash=previous_hash,
            data_hash=tree.root,
            timestamp=timestamp,
        )
        return cls(header=header, transactions=transactions, orderer=orderer)

    @property
    def number(self) -> int:
        return self.header.number

    @property
    def hash(self) -> str:
        return self.header.digest()

    @property
    def tx_count(self) -> int:
        return len(self.transactions)

    @property
    def size_bytes(self) -> int:
        """Approximate wire size of the block.

        Cached: the orderer and every peer charge serialization, transfer
        and disk time from this value several times per delivery, and the
        transaction list is fixed after ordering (``tamper`` — the one
        sanctioned mutation — drops the cache).
        """
        if self._size is None:
            self._size = sum(tx.size_bytes for tx in self.transactions) + 256
        return self._size

    def merkle_tree(self) -> MerkleTree:
        """(Re)build the Merkle tree over the block's transactions.

        Leaf hashes are the transaction digests (``sha256(envelope)``), so
        sealed envelopes contribute their cached digest while tampered
        (unsealed) clones are re-serialized and re-hashed — mutations stay
        visible to :meth:`verify_data_hash`.
        """
        return MerkleTree.from_leaf_hashes([tx.digest() for tx in self.transactions])

    def verify_data_hash(self) -> bool:
        """Check that the header's data hash matches the transactions."""
        return self.merkle_tree().root == self.header.data_hash

    def valid_transactions(self) -> List[Transaction]:
        """Transactions marked VALID by the committer (all, if not yet validated)."""
        if not self.validation_flags:
            return list(self.transactions)
        return [
            tx
            for tx, flag in zip(self.transactions, self.validation_flags)
            if flag is TxValidationCode.VALID
        ]

    def validation_summary(self) -> Dict[str, int]:
        """Count of transactions per validation code."""
        summary: Dict[str, int] = {}
        for flag in self.validation_flags:
            summary[flag.value] = summary.get(flag.value, 0) + 1
        return summary

    def find_transaction(self, tx_id: str) -> Optional[Transaction]:
        for tx in self.transactions:
            if tx.tx_id == tx_id:
                return tx
        return None

    def tamper(self, tx_position: int) -> Transaction:
        """Copy-on-write hook: make one transaction of *this* block mutable.

        Peers share sealed transaction objects structurally instead of
        deep-copying every block; a tamper-evidence experiment therefore
        swaps in a private :meth:`Transaction.tamper` clone (and a private
        transaction list) before mutating, so only this block's copy — one
        peer's ledger — diverges.  Returns the mutable clone; the header's
        data hash is intentionally left untouched so verification detects
        the rewrite.
        """
        transactions = list(self.transactions)
        transactions[tx_position] = transactions[tx_position].tamper()
        self.transactions = transactions
        self._size = None  # clone edits may change the serialized size
        return transactions[tx_position]
