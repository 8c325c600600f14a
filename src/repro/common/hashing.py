"""Hashing helpers.

HyperProv records the SHA-256 checksum of every data item on chain; the
same digest is used as the content address in the off-chain store and for
block/transaction hashing inside the Fabric substrate.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Union

BytesLike = Union[bytes, bytearray, memoryview, str]


def _to_bytes(data: BytesLike) -> bytes:
    if isinstance(data, str):
        return data.encode("utf-8")
    return bytes(data)


def sha256_hex(data: BytesLike) -> str:
    """Return the hex-encoded SHA-256 digest of ``data``."""
    return hashlib.sha256(_to_bytes(data)).hexdigest()


def checksum_of(data: BytesLike) -> str:
    """Checksum used for on-chain records and content addressing.

    Kept as a named alias of :func:`sha256_hex` so the checksum algorithm
    can be swapped in one place.
    """
    return sha256_hex(data)


class HashChain:
    """Incremental hash chain, ``h_n = H(h_{n-1} || item_n)``.

    Used by the block store to maintain the running chain hash and by the
    ProvChain baseline for its tamper-evident log.
    """

    GENESIS = "0" * 64

    def __init__(self, seed: str | None = None) -> None:
        self._current = seed if seed is not None else self.GENESIS
        self._length = 0

    @property
    def current(self) -> str:
        """The latest chained digest."""
        return self._current

    def extend(self, item: BytesLike) -> str:
        """Fold ``item`` into the chain and return the new digest."""
        digest = hashlib.sha256()
        digest.update(self._current.encode("ascii"))
        digest.update(_to_bytes(item))
        self._current = digest.hexdigest()
        self._length += 1
        return self._current

    def verify(self, items: Iterable[BytesLike], seed: str | None = None) -> bool:
        """Re-play ``items`` from ``seed`` and compare with the current digest."""
        replay = HashChain(seed)
        for item in items:
            replay.extend(item)
        return replay.current == self._current and replay._length == self._length
