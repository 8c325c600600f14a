"""Selector compilation and classification for rich queries.

A selector is a flat JSON object; a record document matches when every
selector field equals the corresponding record field (``metadata.*``
selectors match inside the custom metadata map, ``dependencies`` with a
string expectation is a membership test).  This mirrors the rich queries
HLF offers when the state database supports them.

The compiled form — one predicate callable per field — is shared by the
chaincode's scan (residual filter of an indexed plan included, through
:func:`compile_row_predicate`) and the continuous-query registry, so
every surface agrees byte-for-byte on what "matches" means.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

#: Selector fields with reserved (non-matching) meaning.  ``_prefix``
#: scopes the scan, ``_limit``/``_bookmark`` paginate, ``_explain`` asks
#: for the chosen :class:`~repro.query.planner.QueryPlan` in the response.
RESERVED_SELECTOR_FIELDS = frozenset({"_prefix", "_limit", "_bookmark", "_explain"})

#: Record fields a bare selector field may match, with the same defaults
#: ``ProvenanceRecord.from_json`` fills in for missing document keys —
#: matching on the parsed dict stays behaviourally identical to matching
#: on the reconstructed dataclass.
SELECTOR_FIELD_DEFAULTS: Dict[str, Any] = {
    "key": "", "checksum": "", "location": "", "creator": "",
    "organization": "", "certificate_fingerprint": "",
    "dependencies": [], "metadata": {}, "timestamp": 0.0,
    "size_bytes": 0,
}

Predicate = Callable[[Dict[str, Any]], bool]
#: A whole selector as one callable over a committed version (anything
#: whose ``document`` is the parsed value, or ``None``).
RowPredicate = Callable[[Any], bool]


def compile_selector(selector: Dict[str, Any]) -> List[Predicate]:
    """Turn a selector into per-document predicate callables."""
    checks: List[Predicate] = []
    for field, expected in selector.items():
        if field.startswith("metadata."):
            meta_key = field[len("metadata."):]
            checks.append(
                lambda doc, k=meta_key, e=expected:
                    (doc.get("metadata") or {}).get(k) == e
            )
        elif field == "dependencies":
            if isinstance(expected, str):
                checks.append(
                    lambda doc, e=expected:
                        e in (doc.get("dependencies") or [])
                )
            else:
                checks.append(
                    lambda doc, e=expected:
                        (doc.get("dependencies") or []) == e
                )
        elif field in SELECTOR_FIELD_DEFAULTS:
            default = SELECTOR_FIELD_DEFAULTS[field]
            checks.append(
                lambda doc, f=field, d=default, e=expected:
                    doc.get(f, d) == e
            )
        else:
            # Unknown field: only an explicit None can ever match
            # (mirrors the dataclass getattr(..., None) behaviour).
            checks.append(lambda doc, e=expected: e is None)
    return checks


def compile_row_predicate(selector: Dict[str, Any]) -> RowPredicate:
    """The whole selector as one callable over committed versions.

    What a scan hands to ``filter``: one call per visited row, which
    reaches the document and runs the per-field predicates.  A row whose
    value is not a JSON object never matches, not even an empty selector.
    """
    checks = compile_selector(selector)

    def match(row: Any) -> bool:
        document = row.document
        if document is None:
            return False
        for check in checks:
            if not check(document):
                return False
        return True

    return match


def matches(document: Dict[str, Any], compiled: List[Predicate]) -> bool:
    """Whether ``document`` satisfies every compiled predicate."""
    return all(check(document) for check in compiled)


def _index_servable(field: str, expected: Any) -> bool:
    """Whether an equality on ``(field, expected)`` can be answered by a
    posting-list lookup with semantics identical to the scan predicate.

    Scalar equalities only: ``None`` would have to match documents where
    the field is *absent* (postings never hold absent fields), list/dict
    expectations are unhashable, and ``dependencies`` with a string is a
    membership test, not an equality.
    """
    if field == "dependencies" or field == "metadata":
        return False
    if expected is None or isinstance(expected, (list, dict)):
        return False
    if field.startswith("metadata."):
        return bool(field[len("metadata."):])
    return field in SELECTOR_FIELD_DEFAULTS


def split_selector(
    selector: Dict[str, Any], covers: Callable[[str], bool]
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Split a (reserved-field-free) selector for the planner.

    Returns ``(indexed, residual)``: ``indexed`` holds the equality fields
    a secondary index reported it ``covers`` and whose semantics a posting
    lookup reproduces exactly; everything else stays in ``residual`` and
    is evaluated per-document by the compiled predicates.
    """
    indexed: Dict[str, Any] = {}
    residual: Dict[str, Any] = {}
    for field, expected in selector.items():
        if _index_servable(field, expected) and covers(field):
            indexed[field] = expected
        else:
            residual[field] = expected
    return indexed, residual
