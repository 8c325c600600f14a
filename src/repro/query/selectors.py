"""Selector compilation and classification for rich queries.

A selector is a flat JSON object; a record document matches when every
selector field equals the corresponding record field (``metadata.*``
selectors match inside the custom metadata map, ``dependencies`` with a
string expectation is a membership test in a list of strings).  This
mirrors the rich queries HLF offers when the state database supports
them.

Two compiled forms share one meaning of "matches":

* :func:`compile_selector` — one predicate per field over a parsed
  document, what the continuous-query registry runs on each committed
  write (:func:`matches`);
* :func:`compile_row_predicate` — the whole selector as one closure over
  a committed version, what the chaincode's scan hands to ``filter``
  (residual filter of an indexed plan included).  It answers from the
  version's memoized record reading (``VersionedValue.reading``): one
  call per visited row, no call per field, ``metadata.<k>`` a lookup in
  the reading's metadata map.  A field the reading spells differently
  from the document (``timestamp``, ``size_bytes``, the bare
  ``metadata``), and a row with no reading, are answered from the
  document by the per-field predicates.

A row whose ``metadata`` is not a map matches no ``metadata.*`` field on
either surface, one whose ``dependencies`` is not a list matches no
``dependencies`` field, and a value that is not a JSON object matches no
selector, not even an empty one.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.common.records import DEPENDENCIES, METADATA, READ_AS_STORED

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

#: An expectation no reading's field equals.
_NEVER = object()

Predicate = Callable[[Dict[str, Any]], bool]
#: A whole selector as one callable over a committed version (anything
#: with a ``document`` — the parsed value, or ``None`` — and a
#: ``reading``, see :func:`~repro.common.records.record_reading`).
RowPredicate = Callable[[Any], bool]


def compile_selector(selector: Dict[str, Any]) -> List[Predicate]:
    """Turn a selector into per-document predicate callables."""
    checks: List[Predicate] = []
    for field, expected in selector.items():
        if field.startswith("metadata."):
            checks.append(_in_metadata(field[len("metadata."):], expected))
        elif field == "dependencies":
            checks.append(_in_dependencies(expected))
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


def _in_metadata(name: str, expected: Any) -> Predicate:
    def check(doc: Dict[str, Any]) -> bool:
        metadata = doc.get("metadata") or {}
        return isinstance(metadata, dict) and metadata.get(name) == expected

    return check


def _in_dependencies(expected: Any) -> Predicate:
    """``dependencies``: a string is a membership test in a list of strings,
    anything else an equality with the list.

    The document's value is read as :func:`~repro.common.records.record_fields`
    reads it (a missing or falsy one is the empty list); one that is still
    not a list matches nothing, and neither does a list holding a
    non-string under a membership test.
    """
    if isinstance(expected, str):
        def member(doc: Dict[str, Any]) -> bool:
            held = doc.get("dependencies") or []
            return isinstance(held, list) and expected in held and all(
                isinstance(dependency, str) for dependency in held
            )

        return member

    def equal(doc: Dict[str, Any]) -> bool:
        held = doc.get("dependencies") or []
        return isinstance(held, list) and held == expected

    return equal


def compile_row_predicate(selector: Dict[str, Any]) -> RowPredicate:
    """The whole selector as one callable over committed versions.

    What a scan hands to ``filter``: one call per visited row.  A row
    with a reading is matched on it inline; anything else — a field only
    the document spells as stored, a row with no reading, an empty
    selector — goes to the per-field predicates over ``row.document``.
    A row whose value is not a JSON object never matches, not even an
    empty selector.
    """
    checks = compile_selector(selector)

    def by_document(row: Any) -> bool:
        document = row.document
        if document is None:
            return False
        for check in checks:
            if not check(document):
                return False
        return True

    equal: List[Tuple[int, Any]] = []
    members: List[str] = []
    in_metadata: List[Tuple[str, Any]] = []
    for field, expected in selector.items():
        if field.startswith("metadata."):
            in_metadata.append((field[len("metadata."):], expected))
        elif field in READ_AS_STORED:
            equal.append((READ_AS_STORED[field], expected))
        elif field == "dependencies":
            if isinstance(expected, str):
                members.append(expected)
            else:
                # The reading's tuple equals the document's list exactly
                # when it equals the expected list as a tuple.
                wanted = tuple(expected) if isinstance(expected, list) else _NEVER
                equal.append((DEPENDENCIES, wanted))
        elif field in SELECTOR_FIELD_DEFAULTS or expected is not None:
            # ``timestamp``/``size_bytes`` (converted in the reading), the
            # bare ``metadata`` (``None`` is not ``{}`` there) and an
            # unknown field expecting a value: the document answers.
            return by_document
        # An unknown field expecting ``None`` holds for every document.
    if not (equal or members or in_metadata):
        return by_document

    if not equal and not members and len(in_metadata) == 1:
        # A lone ``metadata.<k>``, ``read_mix``'s rich query, skips the
        # loops.  It pays on every row of a scan with no column yet, the
        # first since a write: a query after every write of an 8 000
        # -record state, ten rounds with and without this closure, read
        # p95 896 -> 728 us (10/10; median 665 -> 523 us).
        ((name, wanted),) = in_metadata

        def one_metadata_field(row: Any) -> bool:
            reading = row.reading
            if reading is None:
                return by_document(row)
            return reading[METADATA].get(name) == wanted

        return one_metadata_field

    def by_reading(row: Any) -> bool:
        reading = row.reading
        if reading is None:
            return by_document(row)
        for index, wanted in equal:
            if not reading[index] == wanted:
                return False
        if members:
            dependencies = reading[DEPENDENCIES]
            for wanted in members:
                if wanted not in dependencies:
                    return False
        metadata = reading[METADATA]
        for name, wanted in in_metadata:
            if not metadata.get(name) == wanted:
                return False
        return True

    return by_reading


def column_fields(selector: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """The selector's equalities a world-state scan column may reject rows on.

    ``metadata.<k>`` and the fields :data:`~repro.common.records.READ_AS_STORED`
    names: those :func:`compile_row_predicate` answers with one ``==`` on
    a value of the row's reading, which is what a column holds
    (``WorldState._run``).  Every other field is left to the predicate.
    """
    return tuple(
        (field, expected)
        for field, expected in selector.items()
        if field.startswith("metadata.") or field in READ_AS_STORED
    )


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
