"""Scan columns: a rich query's scan hands out only the rows its columns keep.

The world state keeps, per key run and per ``metadata.<k>`` or stored
record field, the field's value for every key, built by a scan pulled
through its whole run (not the first since a write) and valid until the
next write (``WorldState._run``).  These tests pin what that may and may
not change: the answer is the row predicate's on every row in scope, a
scan without its columns hands out every row in scope, a short or
bookmarked page builds none, rows a column cannot decide (no reading,
deleted key) reach the predicate, a write retires every column, the
number of columns is capped — and the
``dependencies`` field, which no column serves, matches a list of
strings only, on the column path, the plain path and ``matches``.
"""

import json

import pytest

from repro.chaincode.hyperprov import HyperProvChaincode
from repro.chaincode.shim import ChaincodeStub
from repro.ledger import world_state as world_state_module
from repro.ledger.history import HistoryDatabase
from repro.ledger.world_state import WorldState
from repro.query.selectors import compile_selector, matches


def _record(key, hot, **fields):
    return json.dumps({
        "key": key, "checksum": "c", "location": "l", "creator": "cam",
        "organization": "org1", "certificate_fingerprint": "fp", "dependencies": [],
        "metadata": {"hot": hot}, "timestamp": 1.0, "size_bytes": 0, **fields,
    })


class _HandedOut(ChaincodeStub):
    """Counts the rows the ledger's scan hands to the chaincode."""

    handed = 0

    def _count(self, rows):
        for row in rows:
            self.handed += 1
            yield row

    def get_state_by_prefix(self, *args):
        return self._count(super().get_state_by_prefix(*args))

    def iter_state_by_prefix(self, *args):
        return self._count(super().iter_state_by_prefix(*args))


def _query(state, selector):
    stub = _HandedOut("tx", "ch", "query", [json.dumps(selector)], state, HistoryDatabase())
    response = HyperProvChaincode().invoke(stub)
    assert response.is_ok, response.message
    return [row.key for row in response.scan.rows], stub.handed


def _hot_state(count=40):
    state = WorldState()
    for index in range(count):
        state.put(f"a/{index:02d}", _record(f"a/{index:02d}", index % 4 == 0), (1, index))
    return state


@pytest.mark.parametrize("extra", [{}, {"_limit": 50}])
def test_a_scan_hands_out_only_the_rows_its_column_keeps(extra):
    state = _hot_state()
    expected = [f"a/{index:02d}" for index in range(0, 40, 4)]
    # Seen, then seen whole and built, then read.
    for handed_out in (40, 40, 10):
        keys, handed = _query(state, {"_prefix": "a/", "metadata.hot": True, **extra})
        assert keys == expected and handed == handed_out
    # A bookmarked page reads the column it did not build.
    keys, handed = _query(
        state, {"_prefix": "a/", "metadata.hot": True, "_limit": 50, "_bookmark": "a/05"},
    )
    assert keys == expected[2:] and handed == 8
    # The full scan (an empty prefix) has columns of its own: the main index's.
    for handed_out in (40, 10):
        keys, handed = _query(state, {"creator": "cam", "metadata.hot": True, **extra})
        assert keys == expected and handed == handed_out


def test_a_page_that_fills_before_its_run_ends_builds_no_column():
    state = _hot_state()
    for _ in range(3):
        keys, handed = _query(state, {"_prefix": "a/", "metadata.hot": True, "_limit": 3})
        assert keys == ["a/00", "a/04", "a/08"] and handed == 9
    # Nor does a bookmarked page: it did not read the rows before its bookmark.
    _query(state, {"_prefix": "a/", "metadata.hot": True, "_bookmark": "a/05"})
    assert state._columns == {}


def _hot_keys(state):
    """The first three answers of the hot query, asked until its column is built."""
    for _ in range(2):
        keys, _handed = _query(state, {"_prefix": "a/", "metadata.hot": True})
    return keys[:3]


def test_a_write_retires_every_column():
    state = _hot_state()
    assert _hot_keys(state) == ["a/00", "a/04", "a/08"]
    state.put("a/01", _record("a/01", True), (2, 0))
    state.put("a/04", _record("a/04", False), (2, 1))
    assert _query(state, {"_prefix": "a/", "metadata.hot": True})[0][:3] == [
        "a/00", "a/01", "a/08",
    ]
    assert _hot_keys(state) == ["a/00", "a/01", "a/08"]
    state.put("a/00b", _record("a/00b", True), (3, 0))  # a new key shifts the run
    assert _query(state, {"_prefix": "a/", "metadata.hot": True})[0][:3] == [
        "a/00", "a/00b", "a/01",
    ]


def test_a_lazy_scan_pulled_after_a_write_reads_no_column():
    state = _hot_state()
    assert _hot_keys(state) == ["a/00", "a/04", "a/08"]
    where = (("metadata.hot", True),)
    scan = state.iter_by_prefix_versioned("a/", where, "")
    state.put("a/01", _record("a/01", True), (2, 0))
    # No column rejects a row after the write: the whole run is handed out.
    assert [row.key for row in scan] == [f"a/{index:02d}" for index in range(40)]


def test_rows_a_column_cannot_decide_reach_the_predicate():
    state = _hot_state()
    # No reading (``size_bytes`` is no integer): the document still matches.
    state.put("a/01", _record("a/01", True, size_bytes="big"), (2, 0))
    state.put("a/02", "not json", (2, 1))
    for index in (8, 9, 12):  # tombstones, under the compaction floor
        state.delete(f"a/{index:02d}", (3, index))
    # The first two scans hand out the 37 live keys, the second builds a
    # column, which hands on the undecided rows, not deleted keys.
    for handed_out in (37, 37, 10):
        keys, handed = _query(state, {"_prefix": "a/", "metadata.hot": True})
        assert keys == ["a/00", "a/01", "a/04", "a/16", "a/20", "a/24", "a/28", "a/32", "a/36"]
        assert handed == handed_out


def test_the_number_of_columns_is_capped():
    state = _hot_state()
    cap = world_state_module._MAX_COLUMNS
    for name in range(cap + 8):
        assert _query(state, {"_prefix": "a/", f"metadata.f{name}": None})[0] == sorted(
            f"a/{index:02d}" for index in range(40)
        )
    assert len(state._columns) == cap
    # The first query built none; the seven built after it went first.
    fields = {field for _run, field in state._columns}
    assert {f"metadata.f{name}" for name in range(8, cap + 8)} == fields
    assert _query(state, {"_prefix": "a/", "metadata.f1": 1})[0] == []


# ------------------------------------------------------------- dependencies
MALFORMED_DEPENDENCIES = ["abc", 5, True, {"b": 1}, ["b", 5]]


def _dependency_state():
    state = WorldState()
    state.put("a/good", _record("a/good", True, dependencies=["b"]), (1, 0))
    for index, dependencies in enumerate(MALFORMED_DEPENDENCIES):
        key = f"a/bad{index}"
        state.put(key, _record(key, True, dependencies=dependencies), (1, index + 1))
    return state


@pytest.mark.parametrize("selector", [
    {"_prefix": "a/", "dependencies": "b"},                           # plain path
    {"_prefix": "a/", "metadata.hot": True, "dependencies": "b"},     # column path
    {"dependencies": "b", "creator": "cam", "_limit": 10},            # column, lazy
])
def test_a_string_dependency_is_a_member_of_a_list_of_strings_only(selector):
    assert _query(_dependency_state(), selector)[0] == ["a/good"]


@pytest.mark.parametrize("selector", [
    {"_prefix": "a/", "dependencies": ["b"]},
    {"_prefix": "a/", "metadata.hot": True, "dependencies": ["b"]},
])
def test_a_dependency_list_equals_lists_only(selector):
    assert _query(_dependency_state(), selector)[0] == ["a/good"]


@pytest.mark.parametrize("dependencies", MALFORMED_DEPENDENCIES)
def test_matches_answers_malformed_dependencies_without_raising(dependencies):
    document = json.loads(_record("k", True, dependencies=dependencies))
    for expected in ("b", "a", ["b"], [], 5, True):
        assert not matches(document, compile_selector({"dependencies": expected}))
    document["dependencies"] = ["a", "b"]
    assert matches(document, compile_selector({"dependencies": "b"}))
