"""Per-key history index (Fabric's history database).

HyperProv's core query — "show me the full operation history / lineage of
this data item" — is served by the chaincode calling
``GetHistoryForKey``, which walks this index.  Every committed write
appends an entry recording the transaction, block height, timestamp and
value written.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional

from repro.ledger.scan import entry_size


@dataclass(frozen=True)
class HistoryEntry:
    """One committed modification of a key."""

    key: str
    tx_id: str
    block_number: int
    tx_number: int
    timestamp: float
    value: Optional[str]
    is_delete: bool = False

    @cached_property
    def text_size(self) -> int:
        """Length of this version's object in a history answer's text.

        Counted by the first answer that returns it and kept (one int):
        the network charges that length, nobody renders the text.
        """
        return entry_size(self)


class HistoryDatabase:
    """Append-only index of every committed write, grouped by key."""

    def __init__(self) -> None:
        self._entries: Dict[str, List[HistoryEntry]] = {}
        # Maintained sorted key list: the index is append-only (keys are
        # never removed, matching Fabric's history database), so one
        # insort per *new* key replaces a full re-sort per ``keys()`` call.
        self._sorted_keys: List[str] = []
        self.total_entries = 0

    def record(
        self,
        key: str,
        tx_id: str,
        block_number: int,
        tx_number: int,
        timestamp: float,
        value: Optional[str],
        is_delete: bool = False,
    ) -> HistoryEntry:
        """Append a history entry for ``key`` and return it."""
        return self.append(
            HistoryEntry(
                key=key,
                tx_id=tx_id,
                block_number=block_number,
                tx_number=tx_number,
                timestamp=timestamp,
                value=value,
                is_delete=is_delete,
            )
        )

    def append(self, entry: HistoryEntry) -> HistoryEntry:
        """Append an existing (frozen) entry under its key and return it.

        A replica adopting another replica's commit of the same block
        indexes the very entry that replica recorded.
        """
        existing = self._entries.get(entry.key)
        if existing is None:
            self._entries[entry.key] = [entry]
            insort(self._sorted_keys, entry.key)
        else:
            existing.append(entry)
        self.total_entries += 1
        return entry

    def history_for_key(self, key: str) -> List[HistoryEntry]:
        """All modifications of ``key`` in commit order (oldest first)."""
        return list(self._entries.get(key, []))

    def keys(self) -> List[str]:
        return list(self._sorted_keys)
