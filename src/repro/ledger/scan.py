"""What a ledger scan answers: committed versions, and the text they render to.

``query`` and both forms of ``getbyrange`` answer with a :class:`ScanPage`
carried beside the response payload, so everything above the peer —
tenant filter, shard merge, client decode — works on the matched
:class:`~repro.ledger.world_state.VersionedValue` rows (key, value and
the already-parsed ``document``) and never parses them back out of the
payload string.  The string stays the response's external surface (its
length is what the network model charges for); :meth:`ScanPage.payload`
is its single definition.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, NamedTuple, Optional, Tuple

from repro.ledger.world_state import VersionedValue


class ScanPage(NamedTuple):
    """The rows one scan matched, in key order.

    ``enveloped`` pages (a paginated or explained request) render as a
    ``{"records", "bookmark"[, "plan"]}`` object, the others as the plain
    row list; ``bookmark`` is the last returned key when the page filled.
    """

    rows: Tuple[VersionedValue, ...]
    bookmark: Optional[str] = None
    plan: Optional[Dict[str, Any]] = None
    enveloped: bool = False

    def payload(self) -> str:
        """Exactly ``json.dumps`` of the row dicts (pinned by a property test).

        Nothing is kept: a row costs two C calls whenever a page holding
        it is rendered.
        """
        records = "[%s]" % ", ".join([
            '{"key": %s, "record": %s}' % (_quote(row.key), _quote(row.value))
            for row in self.rows
        ])
        if not self.enveloped:
            return records
        bookmark = "null" if self.bookmark is None else _quote(self.bookmark)
        if self.plan is None:
            return '{"records": %s, "bookmark": %s}' % (records, bookmark)
        return '{"records": %s, "bookmark": %s, "plan": %s}' % (
            records, bookmark, json.dumps(self.plan),
        )
