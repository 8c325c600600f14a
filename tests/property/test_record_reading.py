"""A committed version's memoized record reading answers what its document answers.

``VersionedValue.reading`` is read once per version and shared by every
replica and reader.  Two surfaces use it in place of the document, and
each must give exactly the answer the document gives, for any committed
value — well-typed records, records with a missing or ``None`` metadata
map, malformed records and JSON that is not an object:

* the scan's row predicate (:func:`compile_row_predicate`) agrees with
  the continuous-query form, ``matches(document, compile_selector(...))``,
  answering or raising alike;
* a scan row's view (``HyperProvStore.row_views``) equals
  ``RecordView.from_document`` of the committed text, with and without a
  tenant, or fails with the same error — and changing the view changes
  neither the shared document nor the next view.

Each example commits two values to one key in turn, reading the first
before the second lands, so a reading kept across a rewrite of the key
answers for the wrong value.
"""

from __future__ import annotations

import json
from types import SimpleNamespace
from typing import Any, Callable, Tuple

from hypothesis import given, strategies as st

from repro.api.adapters import HyperProvStore
from repro.api.protocol import RecordView
from repro.ledger.world_state import WorldState
from repro.query.selectors import compile_row_predicate, compile_selector, matches
from tests.property_budgets import budget

KEYS = ["tenant/acme/a", "tenant/acme/b", "plain/c", "tenant/other/d"]
SCALARS = st.sampled_from([None, True, False, 0, 1, 2, 1.0, "", "a", "b", "tenant/acme/a"])
NAMES = st.sampled_from(["hot", "group", "a", ""])
STRINGS = st.sampled_from(["a", "b", ""])

metadata_maps = st.dictionaries(
    NAMES,
    st.one_of(SCALARS, st.lists(SCALARS, max_size=2), st.dictionaries(NAMES, SCALARS, max_size=2)),
    max_size=3,
)
dependency_lists = st.lists(st.sampled_from(KEYS + ["a", "b"]), max_size=3)

records = st.fixed_dictionaries({}, optional={
    "key": st.sampled_from(KEYS),
    "checksum": STRINGS,
    "location": STRINGS,
    "creator": STRINGS,
    "organization": STRINGS,
    "certificate_fingerprint": STRINGS,
    "dependencies": st.one_of(dependency_lists, st.none()),
    "metadata": st.one_of(metadata_maps, st.none(), st.just([]), st.just({})),
    "timestamp": st.one_of(st.floats(0, 10, allow_nan=False), st.integers(0, 3)),
    "size_bytes": st.integers(0, 3),
})

#: One field each that ``record_fields`` refuses or converts.
BREAKS = [
    {"dependencies": "a"}, {"dependencies": 5}, {"dependencies": {"a": 1}},
    {"dependencies": [["a"]]}, {"dependencies": [1]}, {"dependencies": True},
    {"metadata": [1]}, {"metadata": "a"}, {"metadata": 5}, {"metadata": True},
    {"timestamp": "soon"}, {"timestamp": "5"}, {"timestamp": None}, {"timestamp": True},
    {"size_bytes": "big"}, {"size_bytes": None}, {"size_bytes": 5.5}, {"size_bytes": "3"},
    {"key": 5},
]
malformed = st.tuples(records, st.sampled_from(BREAKS)).map(lambda drawn: {**drawn[0], **drawn[1]})
NOT_OBJECTS = ["[1, 2]", '"text"', "7", "null", "true", "not json", ""]

values = st.one_of(
    records.map(json.dumps),
    malformed.map(json.dumps),
    st.sampled_from(NOT_OBJECTS),
)
selectors = st.one_of(
    st.dictionaries(
        st.one_of(
            st.sampled_from([
                "key", "checksum", "location", "creator", "organization",
                "certificate_fingerprint", "dependencies", "metadata", "timestamp",
                "size_bytes", "colour",
            ]),
            NAMES.map(lambda name: f"metadata.{name}"),
        ),
        st.one_of(SCALARS, dependency_lists),
        max_size=3,
    ),
    # A lone ``metadata.<k>`` is compiled to a closure of its own.
    st.builds(lambda name, expected: {f"metadata.{name}": expected}, NAMES, SCALARS),
)


def outcome(call: Callable[[], Any]) -> Tuple[str, Any]:
    """What ``call`` answers, or the type of what it raises."""
    try:
        return "answered", call()
    except Exception as exc:  # the comparison is the point: any error, alike
        return "raised", type(exc)


def parsed(value: str) -> Any:
    try:
        document = json.loads(value)
    except ValueError:
        return None
    return document if isinstance(document, dict) else None


@budget
@given(values, values, selectors)
def test_the_row_predicate_matches_what_the_document_matches(first, second, selector):
    predicate = compile_row_predicate(selector)
    compiled = compile_selector(selector)
    state = WorldState()
    for height, value in enumerate((first, second), start=1):
        state.put("k", value, (height, 0))
        row = state.get("k")
        document = parsed(value)
        expected = outcome(lambda: document is not None and matches(document, compiled))
        assert outcome(lambda: predicate(row)) == expected  # fills the reading
        assert outcome(lambda: predicate(row)) == expected  # answers from it


def _snapshot(row: Any) -> str:
    return json.dumps(row.document, sort_keys=True)


def _tamper(view: RecordView) -> None:
    for item in view.metadata.values():
        if isinstance(item, (dict, list)):
            item.clear()
    view.metadata["probe"] = "tampered"


@budget
@given(values, values, st.sampled_from(["", "acme"]), st.booleans())
def test_a_view_of_the_reading_is_the_view_of_the_document(first, second, tenant, stale):
    store = HyperProvStore(SimpleNamespace(pipeline_config=SimpleNamespace(tenant=tenant)))
    state = WorldState()
    for height, value in enumerate((first, second), start=1):
        state.put("k", value, (height, 0))
        page = SimpleNamespace(rows=(state.get("k"),))
        expected = outcome(lambda: [RecordView.from_document(value, tenant, stale=stale)])
        before = _snapshot(page.rows[0])
        got = outcome(lambda: store.row_views(page, stale))
        assert got == expected
        if got[0] == "answered":
            _tamper(got[1][0])
            assert _snapshot(page.rows[0]) == before
            assert outcome(lambda: store.row_views(page, stale)) == expected
