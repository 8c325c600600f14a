"""A rich query answered through scan columns is the reference scan's answer.

The world state keeps a column per key run and per ``metadata.<k>`` or
stored record field, valid until its next write, and a scan hands out
only the rows no column rejects (``WorldState._run``).  For ledgers drawn
by Hypothesis — well-typed records, records with no reading (a
``metadata`` that is not a map, malformed ``dependencies``, a
``size_bytes`` that is no integer), values that are not JSON objects,
``__`` marker keys, overwrites, new keys and deletes up to and past the
index's compaction (a bucket filled, then wiped) between two queries —
up to three queries are asked three times each after every operation
(the first since a write builds no column, the second builds, the third
reads), and each answer must equal a reference that runs :func:`compile_row_predicate` on every
live row in scope: the rows and their order, the versions, the bookmark,
the read set and the ``_explain`` plan.  The state's scan lookahead is
drawn too, so that a lazy page reads a column over several chunks of one
run.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from hypothesis import given, strategies as st

from repro.chaincode.hyperprov import HyperProvChaincode
from repro.chaincode.shim import ChaincodeStub
from repro.ledger.history import HistoryDatabase
from repro.ledger.transaction import ReadSetEntry
from repro.ledger.world_state import VersionedValue, WorldState
from repro.query.planner import build_plan
from repro.query.selectors import compile_row_predicate
from tests.property_budgets import budget

#: Two buckets big enough that wiping one compacts its index, markers,
#: and keys with no ``/`` (main index only).
KEYS = (
    [f"a/{index:02d}" for index in range(24)]
    + [f"b/{index}" for index in range(6)]
    + ["__m/0", "__marker", "a", "c"]
)
#: Small domains, so that a query's expectation often meets a row's value.
SCALARS = st.sampled_from([True, False, None, 1, "cam", "org1", "a/00"])
DEPENDENCIES = st.sampled_from(
    [[], ["a/00"], ["a/00", "b/1"], "a/00x", 5, True, ["a/00", 3], None]
)

records = st.fixed_dictionaries(
    {"organization": st.sampled_from(["org1", "org2"])},
    optional={
        "key": st.sampled_from(["a/00", "b/1", ""]),
        "creator": st.sampled_from(["cam", "gw", 5]),
        "metadata": st.one_of(
            st.dictionaries(st.sampled_from(["hot", "tag"]), st.sampled_from([True, False, 1]),
                            max_size=2),
            st.sampled_from([None, [1], "x", 5]),
        ),
        "dependencies": DEPENDENCIES,
        "size_bytes": st.sampled_from([0, 3, "big"]),
        "timestamp": st.sampled_from([0.0, 1.0, "soon"]),
    },
)
values = st.one_of(
    records.map(json.dumps),
    st.sampled_from(["[1]", "7", "not json", "null", '"s"']),
)

COLUMN_FIELDS = ["metadata.hot", "metadata.tag", "creator", "organization", "key"]
#: The fields no column serves, each with expectations a record may meet.
OTHER_FIELDS = {
    "dependencies": st.sampled_from([[], "a/00", ["a/00"], 5]),
    "metadata": st.sampled_from([{}, None]),
    "timestamp": st.sampled_from([0.0, 1.0]),
    "size_bytes": st.sampled_from([0, 3]),
    "colour": st.sampled_from([None, "red"]),
}


@st.composite
def selectors(draw: Any) -> Dict[str, Any]:
    """1–3 fields: up to two a column serves, and maybe one it does not."""
    names = draw(st.lists(st.sampled_from(COLUMN_FIELDS), max_size=2, unique=True))
    others = draw(st.lists(
        st.sampled_from(sorted(OTHER_FIELDS)), min_size=0 if names else 1, max_size=1,
    ))
    selector: Dict[str, Any] = {name: draw(SCALARS) for name in names}
    for name in others:
        selector[name] = draw(OTHER_FIELDS[name])
    for reserved, choices in (
        ("_prefix", st.sampled_from(["a/", "b/", "", "a", "a/1", "__m/", "zz/"])),
        ("_limit", st.sampled_from([0, 1, 3, 50])),
        ("_bookmark", st.sampled_from(["", "a/05", "a/10", "a/23", "b/", "c"])),
        ("_explain", st.just(True)),
    ):
        if draw(st.booleans()):
            selector[reserved] = draw(choices)
    return selector


operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(KEYS), values),
        # A row that meets a query's column fields, with a reading or not
        # (drawn twice as often without: a column must hand that row on).
        st.tuples(st.just("meet"), st.sampled_from(KEYS), st.integers(0, 2), st.booleans()),
        st.tuples(st.just("meet"), st.sampled_from(KEYS), st.integers(0, 2), st.just(False)),
        st.tuples(st.just("delete"), st.sampled_from(KEYS)),
        st.tuples(st.just("fill"), st.sampled_from(["a/", "b/", ""]), values),
        st.tuples(st.just("wipe"), st.sampled_from(["a/", "b/", ""])),
        st.tuples(st.just("no write"),),
    ),
    min_size=6,
    max_size=30,
)
#: The ledger before the operations: a value (or no key) for each of KEYS.
preloads = st.lists(st.one_of(st.none(), values), min_size=len(KEYS), max_size=len(KEYS))


def _meeting(selector: Dict[str, Any], readable: bool) -> str:
    """A record whose column fields equal ``selector``'s (no reading unless ``readable``)."""
    document: Dict[str, Any] = {"organization": "org1", "metadata": {}}
    for name, expected in selector.items():
        if name.startswith("metadata."):
            document["metadata"][name[len("metadata."):]] = expected
        elif name in COLUMN_FIELDS:
            document[name] = expected
    if not readable:
        document["size_bytes"] = "big"
    return json.dumps(document)


def _reference(state: WorldState, model: Dict[str, Tuple[str, Any]], selector: Dict[str, Any]):
    """Every live row in scope, in key order, through the compiled predicate."""
    fields = {name: value for name, value in selector.items() if not name.startswith("_")}
    prefix = selector.get("_prefix") or ""
    bookmark = selector.get("_bookmark") or ""
    limit = selector.get("_limit") or 0
    match = compile_row_predicate(fields)
    rows: List[Tuple[str, str, Any]] = []
    for key in sorted(model):
        if not key.startswith(prefix) or key.startswith("__") or key <= bookmark:
            continue
        value, version = model[key]
        if match(VersionedValue(value, version, key)):
            rows.append((key, value, version))
            if limit and len(rows) == limit:
                break
    truncated = bool(limit) and len(rows) == limit
    plan = None
    if selector.get("_explain"):
        plan = build_plan(
            fields, index=None, total_keys=len(model), prefix=prefix,
            prefix_keys=state.prefix_key_estimate(prefix) if prefix else None,
            limit=limit, bookmark=bookmark,
        ).explain()
    return rows, rows[-1][0] if truncated else None, plan


def _ask(state: WorldState, selector: Dict[str, Any]):
    stub = ChaincodeStub(
        "tx", "ch", "query", [json.dumps(selector)], state, HistoryDatabase(),
    )
    response = HyperProvChaincode().invoke(stub)
    assert response.is_ok, response.message
    assert stub.state_operations == 1
    page = response.scan
    rows = [(row.key, row.value, row.version) for row in page.rows]
    assert stub.rw_set.reads == [ReadSetEntry(key, version) for key, _value, version in rows]
    enveloped = any(name in selector for name in ("_limit", "_bookmark", "_explain"))
    assert page.enveloped is enveloped
    return rows, page.bookmark, page.plan


@budget
@given(
    preloads, st.lists(selectors(), min_size=1, max_size=3), operations,
    st.sampled_from([2, 5, 64]),
)
def test_a_column_scan_answers_what_the_reference_scan_answers(preload, asked, ops, lookahead):
    state = WorldState()
    state._SCAN_LOOKAHEAD = lookahead
    model: Dict[str, Tuple[str, Any]] = {}
    for index, (key, value) in enumerate(zip(KEYS, preload)):
        if value is not None:
            model[key] = (value, (0, index))
            state.put(key, value, (0, index))
    for step, op in enumerate(ops, start=1):
        if op[0] == "put":
            _kind, key, value = op
            model[key] = (value, (step, 0))
            state.put(key, value, (step, 0))
        elif op[0] == "meet":
            _kind, key, asked_index, readable = op
            value = _meeting(asked[asked_index % len(asked)], readable)
            model[key] = (value, (step, 0))
            state.put(key, value, (step, 0))
        elif op[0] == "delete":
            state.delete(op[1], (step, 0))
            model.pop(op[1], None)
        elif op[0] == "fill":
            for index, key in enumerate(key for key in KEYS if key.startswith(op[1])):
                model[key] = (op[2], (step, index))
                state.put(key, op[2], (step, index))
        elif op[0] == "wipe":
            for key in [key for key in sorted(model) if key.startswith(op[1])]:
                state.delete(key, (step, 0))
                del model[key]
        # Three times each: the first scan since a write builds no column,
        # a later one pulled through its whole run builds, the next reads.
        for selector in asked:
            expected = _reference(state, model, selector)
            for _ in range(3):
                assert _ask(state, selector) == expected
