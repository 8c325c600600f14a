"""Field-value secondary indexes over committed record documents.

A :class:`FieldValueIndex` maintains posting lists ``field → value →
{keys}`` over the JSON record documents stored in the world state, plus a
reverse ``key → terms`` map so an overwrite or delete cleans its old
postings in O(terms) — the tombstone handling the sorted-key index gets
from its lazy dead set, done eagerly here because posting sets are cheap
to mutate in place.

The index is attached to a :class:`~repro.ledger.world_state.WorldState`
via ``attach_secondary_index`` and from then on is updated
*transactionally* with every committed put/delete: there is no window in
which a committed record is unreachable through its postings.

Term extraction mirrors the selector semantics in
:mod:`repro.query.selectors` exactly: known scalar record fields are
indexed with their ``from_json`` defaults (a document missing ``creator``
is posted under ``""``), and the ``metadata.*`` wildcard posts every
scalar entry of the custom metadata map under ``metadata.<key>``.
Unhashable values (lists, dicts) are never posted — a selector equality
on them is not index-servable and stays on the residual scan path.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.common.errors import ValidationError
from repro.query.selectors import SELECTOR_FIELD_DEFAULTS

#: Configuring this pseudo-field indexes every scalar ``metadata.<key>``.
METADATA_WILDCARD = "metadata.*"

#: Exact record fields that may be indexed (scalar-valued per the record
#: schema; ``dependencies``/``metadata`` are containers and excluded).
INDEXABLE_RECORD_FIELDS = frozenset(
    field
    for field, default in SELECTOR_FIELD_DEFAULTS.items()
    if not isinstance(default, (list, dict))
)

#: The field set used when a configuration just says "indexes on".
DEFAULT_INDEX_FIELDS: Tuple[str, ...] = ("checksum", "creator", METADATA_WILDCARD)

_Term = Tuple[str, Any]


def validate_index_fields(fields: Iterable[str]) -> Tuple[str, ...]:
    """Validate and normalize a configured index field list.

    Accepted entries: the scalar record fields (``checksum``, ``creator``,
    ``organization``, …), specific ``metadata.<key>`` paths, or the
    ``metadata.*`` wildcard.  Duplicates collapse, order is preserved.
    """
    normalized: List[str] = []
    for field in fields:
        if not isinstance(field, str) or not field:
            raise ValidationError(f"index field must be a non-empty string, got {field!r}")
        if field == METADATA_WILDCARD:
            pass
        elif field.startswith("metadata."):
            if not field[len("metadata."):]:
                raise ValidationError("metadata. index field needs a key (or use metadata.*)")
        elif field not in INDEXABLE_RECORD_FIELDS:
            raise ValidationError(
                f"cannot index field {field!r}; expected one of "
                f"{sorted(INDEXABLE_RECORD_FIELDS)}, metadata.<key> or {METADATA_WILDCARD}"
            )
        if field not in normalized:
            normalized.append(field)
    if not normalized:
        raise ValidationError("index field list cannot be empty")
    return tuple(normalized)


class FieldValueIndex:
    """Posting-list index a ``WorldState`` keeps current.

    The world state calls ``update`` after every committed put and
    ``remove`` after every committed delete; those two methods are all
    the ledger requires of an attached index.
    """

    def __init__(self, fields: Iterable[str]) -> None:
        self.fields = validate_index_fields(fields)
        self._wildcard = METADATA_WILDCARD in self.fields
        self._exact = frozenset(f for f in self.fields if f != METADATA_WILDCARD)
        #: field → value → set of keys holding that value.
        self._postings: Dict[str, Dict[Any, Set[str]]] = {}
        #: key → the terms it is currently posted under (overwrite/delete cleanup).
        self._key_terms: Dict[str, Tuple[_Term, ...]] = {}

    # ------------------------------------------------------------- coverage
    def covers(self, field: str) -> bool:
        """Whether equality selectors on ``field`` can be served."""
        if field in self._exact:
            return True
        return (
            self._wildcard
            and field.startswith("metadata.")
            and bool(field[len("metadata."):])
        )

    # ---------------------------------------------------------- maintenance
    def update(self, key: str, value: str) -> None:
        """(Re-)index ``key`` after a committed put of ``value``."""
        old_terms = self._key_terms.get(key)
        terms = self._extract_terms(value)
        if old_terms == terms:
            return
        if old_terms:
            self._drop_terms(key, old_terms)
        for field, token in terms:
            self._postings.setdefault(field, {}).setdefault(token, set()).add(key)
        if terms:
            self._key_terms[key] = terms
        else:
            self._key_terms.pop(key, None)

    def remove(self, key: str) -> None:
        """Drop every posting for ``key`` after a committed delete."""
        terms = self._key_terms.pop(key, None)
        if terms:
            self._drop_terms(key, terms)

    def _drop_terms(self, key: str, terms: Tuple[_Term, ...]) -> None:
        for field, token in terms:
            by_value = self._postings.get(field)
            if by_value is None:
                continue
            keys = by_value.get(token)
            if keys is None:
                continue
            keys.discard(key)
            if not keys:
                del by_value[token]
                if not by_value:
                    del self._postings[field]

    def _extract_terms(self, value: str) -> Tuple[_Term, ...]:
        try:
            document = json.loads(value)
        except (TypeError, ValueError):
            return ()
        if not isinstance(document, dict):
            return ()
        terms: List[_Term] = []
        for field in self._exact:
            if field.startswith("metadata."):
                token = (document.get("metadata") or {}).get(field[len("metadata."):])
            else:
                token = document.get(field, SELECTOR_FIELD_DEFAULTS.get(field))
            if _hashable_scalar(token):
                terms.append((field, token))
        if self._wildcard:
            metadata = document.get("metadata")
            if isinstance(metadata, dict):
                for meta_key, token in metadata.items():
                    field = f"metadata.{meta_key}"
                    if field in self._exact:
                        continue  # already posted by the exact entry above
                    if _hashable_scalar(token):
                        terms.append((field, token))
        return tuple(terms)

    # ---------------------------------------------------------------- reads
    def lookup(self, field: str, expected: Any) -> Optional[Set[str]]:
        """Keys posted under ``(field, expected)``; ``None`` if not covered.

        The returned set is live — callers must not mutate it.
        """
        if not self.covers(field):
            return None
        return self._postings.get(field, {}).get(expected, _EMPTY_KEYS)

    def cardinality(self, field: str, expected: Any) -> int:
        """Posting-list size for ``(field, expected)`` (0 when not covered)."""
        keys = self.lookup(field, expected)
        return len(keys) if keys is not None else 0


#: Shared immutable empty result for covered-but-absent lookups.
_EMPTY_KEYS: Set[str] = set()


def _hashable_scalar(token: Any) -> bool:
    return token is not None and not isinstance(token, (list, dict))
