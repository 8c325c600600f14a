"""The Solo ordering service: a single orderer, no fault tolerance.

This is what the paper's testbeds run ("one Xeon machine runs the
orderer").  A cut batch becomes a block and is delivered at once.
"""

from __future__ import annotations

from typing import List

from repro.consensus.base import OrderingService
from repro.ledger.transaction import Transaction


class SoloOrderingService(OrderingService):
    """Single-node ordering: cut batch → assemble block → deliver."""

    def _order_batch(self, batch: List[Transaction]) -> None:
        self._deliver_block(self._assemble_block(batch))
