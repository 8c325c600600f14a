"""Append-only block store with chain-integrity verification."""

from __future__ import annotations

from typing import List

from repro.common.errors import NotFoundError, ValidationError
from repro.ledger.block import Block

GENESIS_PREVIOUS_HASH = "0" * 64


class BlockStore:
    """The ordered, hash-linked sequence of blocks held by one peer."""

    def __init__(self) -> None:
        self._blocks: List[Block] = []

    # ------------------------------------------------------------------ write
    def append(self, block: Block, data_hash_verified: bool = False) -> None:
        """Append ``block`` after verifying number, hash link and data hash.

        Nothing is stored when a check fails.  ``data_hash_verified`` says
        the Merkle root over this very transaction list was already checked
        against this header (by the replica whose commit of the block the
        caller adopts); number and hash link are checked against this
        store's own tip regardless.
        """
        expected_number = len(self._blocks)
        if block.number != expected_number:
            raise ValidationError(
                f"expected block number {expected_number}, got {block.number}"
            )
        expected_previous = (
            self._blocks[-1].hash if self._blocks else GENESIS_PREVIOUS_HASH
        )
        if block.header.previous_hash != expected_previous:
            raise ValidationError(
                f"block {block.number} previous-hash mismatch: "
                f"expected {expected_previous[:12]}…, got {block.header.previous_hash[:12]}…"
            )
        if not data_hash_verified and not block.verify_data_hash():
            raise ValidationError(f"block {block.number} data hash does not match its transactions")
        self._blocks.append(block)

    # ------------------------------------------------------------------- read
    @property
    def height(self) -> int:
        """Number of blocks in the chain."""
        return len(self._blocks)

    @property
    def latest_hash(self) -> str:
        return self._blocks[-1].hash if self._blocks else GENESIS_PREVIOUS_HASH

    def block(self, number: int) -> Block:
        if not 0 <= number < len(self._blocks):
            raise NotFoundError(f"block {number} does not exist (height={self.height})")
        return self._blocks[number]

    # ------------------------------------------------------------ verification
    def verify_chain(self) -> bool:
        """Re-check every hash link and data hash in the chain."""
        previous = GENESIS_PREVIOUS_HASH
        for index, block in enumerate(self._blocks):
            if block.number != index:
                return False
            if block.header.previous_hash != previous:
                return False
            if not block.verify_data_hash():
                return False
            previous = block.hash
        return True
