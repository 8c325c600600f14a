"""The Merkle root a block header commits to.

Fabric blocks carry the hash of their transaction data; here that is the
root of a binary Merkle tree over the transactions' digests.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.common.hashing import sha256_hex

#: The root of a block with no transactions.
EMPTY_ROOT = sha256_hex(b"hyperprov-empty-merkle")


def merkle_root(leaf_hashes: Sequence[str]) -> str:
    """Root of the binary tree over ``leaf_hashes``.

    A leaf hash is ``sha256_hex(leaf)``: a block's leaves are its
    ``Transaction.digest()`` values, cached on sealed envelopes, so no
    envelope is re-hashed per peer per block.  A level with an odd node
    count pairs its last node with itself.
    """
    if not leaf_hashes:
        return EMPTY_ROOT
    level: List[str] = list(leaf_hashes)
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [sha256_hex(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]
