"""What a multi-row read answers: committed rows, and the text they stand for.

``query`` and both forms of ``getbyrange`` answer with a :class:`ScanPage`
of the matched :class:`~repro.ledger.world_state.VersionedValue` rows (key,
value and the already-parsed ``document``); ``getkeyhistory`` answers with
a :class:`HistoryPage` of the key's committed
:class:`~repro.ledger.history.HistoryEntry` objects.  Everything above the
peer — tenant filter, shard merge, client decode — works on those rows,
and nothing renders them: the network model charges a response for the
length of its text, which :meth:`ScanPage.size` / :meth:`HistoryPage.size`
count from a per-version memo (:func:`row_size`, :func:`entry_size`)
without building it.  The text itself is defined once per page type, by
``payload()``, and rendered only for a caller that asks for it.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, Iterable, NamedTuple, Optional, Tuple

if TYPE_CHECKING:  # the versions import this module for their length memo
    from repro.ledger.history import HistoryEntry
    from repro.ledger.world_state import VersionedValue

_ROW = '{"key": %s, "record": %s}'
_ENVELOPE = '{"records": %s, "bookmark": %s}'
_EXPLAINED = '{"records": %s, "bookmark": %s, "plan": %s}'
_ENTRY = '{"tx_id": %s, "block": %s, "timestamp": %s, "is_delete": %s, "value": %s}'
#: ``json.dumps`` spells the floats ``repr`` does not.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_TEXT_SIZE = attrgetter("text_size")


def _frame(template: str) -> int:
    """Length of ``template`` with every ``%s`` left empty."""
    return len(template % (("",) * template.count("%s")))


_ROW_FRAME, _ENVELOPE_FRAME, _EXPLAINED_FRAME = map(_frame, (_ROW, _ENVELOPE, _EXPLAINED))


def _number(value: float) -> str:
    text = repr(value)
    return _NON_FINITE.get(text, text)


def _list_size(sizes: Iterable[int], count: int) -> int:
    """Length of ``[a, b, …]`` around ``count`` items of the given lengths."""
    return sum(sizes) + 2 * count if count else 2


def row_size(row: "VersionedValue") -> int:
    """Length of ``row``'s object in a scan page's text (its ``text_size``)."""
    return _ROW_FRAME + len(_quote(row.key)) + len(_quote(row.value))


def _entry_text(entry: "HistoryEntry") -> str:
    return _ENTRY % (
        _quote(entry.tx_id),
        _number(entry.block_number),
        _number(entry.timestamp),
        "true" if entry.is_delete else "false",
        "null" if entry.value is None else _quote(entry.value),
    )


def entry_size(entry: "HistoryEntry") -> int:
    """Length of ``entry``'s object in a history page's text (its ``text_size``)."""
    return len(_entry_text(entry))


class ScanPage(NamedTuple):
    """The rows one scan matched, in key order.

    ``enveloped`` pages (a paginated or explained request) render as a
    ``{"records", "bookmark"[, "plan"]}`` object, the others as the plain
    row list; ``bookmark`` is the last returned key when the page filled.
    """

    rows: Tuple["VersionedValue", ...]
    bookmark: Optional[str] = None
    plan: Optional[Dict[str, Any]] = None
    enveloped: bool = False

    def payload(self) -> str:
        """Exactly ``json.dumps`` of the row dicts (pinned by a property test)."""
        records = "[%s]" % ", ".join([
            _ROW % (_quote(row.key), _quote(row.value)) for row in self.rows
        ])
        if not self.enveloped:
            return records
        bookmark = "null" if self.bookmark is None else _quote(self.bookmark)
        if self.plan is None:
            return _ENVELOPE % (records, bookmark)
        return _EXPLAINED % (records, bookmark, json.dumps(self.plan))

    def size(self) -> int:
        """``len(self.payload())``, counted from the rows' memo without rendering."""
        size = _list_size(map(_TEXT_SIZE, self.rows), len(self.rows))
        if not self.enveloped:
            return size
        size += 4 if self.bookmark is None else len(_quote(self.bookmark))
        if self.plan is None:
            return size + _ENVELOPE_FRAME
        return size + _EXPLAINED_FRAME + len(json.dumps(self.plan))


class HistoryPage(NamedTuple):
    """Every committed version of one key, oldest first.

    A merged fan-out orders the shards' versions by commit timestamp, then
    block number (blocks are numbered per shard).
    """

    entries: Tuple["HistoryEntry", ...]

    def payload(self) -> str:
        """Exactly ``json.dumps`` of the ``{"tx_id", "block", "timestamp",
        "is_delete", "value"}`` dicts (pinned by a property test)."""
        return "[%s]" % ", ".join(map(_entry_text, self.entries))

    def size(self) -> int:
        """``len(self.payload())``, counted from the entries' memo without rendering."""
        return _list_size(map(_TEXT_SIZE, self.entries), len(self.entries))
