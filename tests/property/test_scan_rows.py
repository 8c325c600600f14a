"""Randomized reference tests: a read's rows, their text, its size and read set.

A scan (``query``, both forms of ``getbyrange``) answers with the
committed versions it matched (``ChaincodeResponse.scan``), a key history
(``getkeyhistory``) with the key's committed entries
(``ChaincodeResponse.history``); neither carries a payload string.  A
scan's read set is appended from what each returned version already carries.
For random ledgers — quotes, backslashes, control characters and non-ASCII
in keys and values, ``__`` marker keys, values that are not JSON objects,
updates and deletes — and random requests over all six candidate sources,
these tests pin, against a brute-force reference kept here (a plain dict
of the committed state, sorted per request; the planner suite's own
reading of what a selector field matches):

* the candidates a range or prefix scan pulled are the live keys in scope,
  in key order, cut after the row that filled a lazy page;
* the page's text (``payload()``) is byte-for-byte the ``json.dumps`` of
  the row dicts the reference loop builds, and its ``size()`` — what the
  network charges — is that text's length, in every page shape; the same
  holds for a history page against the ``json.dumps`` of its entry dicts;
* the reads are one entry per returned row, in key order — never a
  candidate the scan pulled and rejected or skipped — and the digest is
  ``sha256(canonical_json(rw_set.to_dict()))``;
* the carried rows, bookmark and plan are the text's, decoded;
* asking twice gives equal answers (the second from filled fragments) and
  a write in between changes exactly the written row;
* cloned, tampered and hand-extended read sets digest from their own
  entries, never from the scan's cached lines;
* a page that fills stops pulling at the filling row whatever hands the
  candidates over (the ledger's lazy scan, a list iterator, a generator
  as the benchmark's tracer wraps it) and reads only its own rows, and a
  5-row page over a 10 000-key state pulls 5 rows and looks up one chunk
  of keys.
"""

import json
import random

import pytest

from repro.chaincode.hyperprov import HyperProvChaincode
from repro.chaincode.records import ProvenanceRecord
from repro.chaincode.shim import ChaincodeStub
from repro.common.hashing import checksum_of, sha256_hex
from repro.common.serialization import canonical_json
from repro.ledger.block import Block
from repro.ledger.history import HistoryDatabase, HistoryEntry
from repro.ledger.scan import HistoryPage, ScanPage
from repro.ledger.transaction import ReadSetEntry, Transaction
from repro.ledger.world_state import VersionedValue, WorldState
from repro.query.indexes import FieldValueIndex
from repro.query.selectors import compile_row_predicate
from tests.property.test_query_planner_equivalence import _oracle_matches

AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "ø", " ", "😀", "'", "{", "]"]
SEGMENTS = ["a", "b", '"q"', "é\\", "__m"]
STATIONS = ["tromso", 'al"ta', "vardø", "x\\y"]
PARENTS = ["a/00", 'b/07"', "é\\/03"]
NON_OBJECTS = ["not json", "true", "[1, 2]", '"str"', "12", "", "null"]


def _text(rng: random.Random, size: int = 4) -> str:
    return "".join(rng.choice(AWKWARD + list("abc/")) for _ in range(rng.randrange(size + 1)))


def _random_key(rng: random.Random) -> str:
    if rng.random() < 0.08:
        return f"__marker{rng.randrange(3)}"
    # A small key space: updates and re-puts of deleted keys are common.
    return f"{rng.choice(SEGMENTS)}/{rng.randrange(25):02d}{_text(rng, 1)}"


def _random_value(rng: random.Random, key: str, step: int) -> str:
    if rng.random() < 0.12:
        return rng.choice(NON_OBJECTS)
    return _record_value(rng, key, step)


def _record_value(rng: random.Random, key: str, step: int) -> str:
    metadata = {"note": _text(rng)}
    if rng.random() < 0.8:
        metadata["station"] = rng.choice(STATIONS)
    if rng.random() < 0.6:
        metadata["hot"] = rng.random() < 0.5
    if rng.random() < 0.2:
        metadata["nested"] = {"tags": [_text(rng), step]}
    return ProvenanceRecord(
        key=key,
        checksum=checksum_of(f"{key}@{step}".encode()),
        location=f"ssh://storage/{_text(rng)}",
        creator=rng.choice(["cam", 'g"w', "ø"]),
        organization="org1",
        certificate_fingerprint="fp",
        dependencies=rng.sample(PARENTS, rng.randrange(1, 3)) if rng.random() < 0.3 else [],
        metadata=metadata,
        timestamp=float(step),
    ).to_json()


def _random_ledger(rng: random.Random, state: WorldState, steps: int = 220) -> dict:
    """Fill ``state``; returns the brute-force model ``{key: (value, version)}``."""
    model = {"__hyperprov_initialized__": ("true", (0, 0))}
    state.put("__hyperprov_initialized__", "true", (0, 0))
    for step in range(1, steps + 1):
        live = sorted(model)
        if len(live) > 1 and rng.random() < 0.15:
            key = live[rng.randrange(len(live))]
            state.delete(key, (step, 0))
            del model[key]
            continue
        key = _random_key(rng)
        model[key] = (_random_value(rng, key, step), (step, rng.randrange(4)))
        state.put(key, *model[key])
    return model


def _random_selector(rng: random.Random) -> dict:
    selector = {}
    if rng.random() < 0.5:
        selector["creator"] = rng.choice(["cam", 'g"w', "ø"])
    if rng.random() < 0.5:
        selector["metadata.station"] = rng.choice(STATIONS)
    if rng.random() < 0.3:
        selector["metadata.hot"] = rng.random() < 0.5
    if rng.random() < 0.25:
        # A string is a membership test, a list an equality.
        key = rng.choice(PARENTS)
        selector["dependencies"] = rng.choice([key, [key], []])
    if rng.random() < 0.15:
        # No record has the field: only an explicit ``None`` matches.
        selector["colour"] = rng.choice([None, "red"])
    if rng.random() < 0.6 or not selector:
        selector["_prefix"] = rng.choice(["a/", "b/1", '"q"/', "é\\/", "__", "", "zz/"])
        if not selector["_prefix"] and len(selector) == 1:
            selector["creator"] = "cam"
    if rng.random() < 0.5:
        selector["_limit"] = rng.randrange(0, 6)
    if rng.random() < 0.3:
        selector["_bookmark"] = _random_key(rng)
    if rng.random() < 0.3:
        selector["_explain"] = True
    return selector


class RecordingStub(ChaincodeStub):
    """A stub that notes which scan served the call and every candidate pulled."""

    def _record(self, source, candidates):
        self.source = source
        self.pulled = []
        if isinstance(candidates, list):
            self.pulled.extend(candidates)  # fetched, hence read, in full
            return candidates
        return self._pulling(candidates)

    def _pulling(self, candidates):
        for candidate in candidates:
            self.pulled.append(candidate)
            yield candidate

    def get_state_by_range(self, *args):
        return self._record("eager-range", super().get_state_by_range(*args))

    def get_state_by_prefix(self, *args):
        return self._record("eager-prefix", super().get_state_by_prefix(*args))

    def get_state_by_keys(self, *args):
        return self._record("index-keys", super().get_state_by_keys(*args))

    def iter_state_by_prefix(self, *args):
        return self._record("lazy-prefix", super().iter_state_by_prefix(*args))

    def iter_state_by_range(self, *args):
        return self._record("lazy-range", super().iter_state_by_range(*args))


def _invoke(state: WorldState, function: str, args: list):
    stub = RecordingStub(
        tx_id="tx", channel="ch", function=function, args=args,
        world_state=state, history=HistoryDatabase(), timestamp=1.0,
    )
    response = HyperProvChaincode().invoke(stub)
    assert response.is_ok, response.message
    assert stub.state_operations == 1
    return stub, response


def _reference_rows(candidates, fields, limit, markers):
    """The reference scan loop over ``(key, value)`` pairs in key order.

    ``fields`` is the selector without its reserved fields, or ``None``
    for a scan that matches nothing (``getbyrange``).  Returns the row
    dicts, whether the page filled and how many candidates were visited.
    """
    rows = []
    for visited, (key, value) in enumerate(candidates, 1):
        if not markers and key.startswith("__"):
            continue
        if fields is not None:
            try:
                document = json.loads(value)
            except ValueError:
                continue
            if not isinstance(document, dict) or not all(
                _oracle_matches(document, field, expected) for field, expected in fields.items()
            ):
                continue
        rows.append({"key": key, "record": value})
        if limit and len(rows) >= limit:
            return rows, True, visited
    return rows, False, len(candidates)


def _in_scope(model, low="", high="", prefix="", after=""):
    """Brute force: the live ``(key, value, version)`` a scan has in scope."""
    return [
        (key, *model[key])
        for key in sorted(model)
        if key >= low and (not high or key < high) and key.startswith(prefix) and key > after
    ]


def _reference_payload(rows, truncated, enveloped, plan):
    """The parent's rendering: ``json.dumps`` of the rows, or of their envelope."""
    if not enveloped:
        return json.dumps(rows)
    envelope = {"records": rows, "bookmark": rows[-1]["key"] if truncated else None}
    if plan is not None:
        envelope["plan"] = plan
    return json.dumps(envelope)


def _check_answer(stub, response, fields, limit, markers, enveloped, scope=None):
    """Hold one answer against the reference; ``scope`` is ``_in_scope(...)``.

    Without a ``scope`` (the index path: which candidates survive the
    posting intersection is the planner's business) the reference scans
    what the stub saw pulled.
    """
    page = response.scan
    pulled = [(entry.key, entry.value, entry.version) for entry in stub.pulled]
    if scope is None:
        scope = pulled
    rows, truncated, visited = _reference_rows(
        [(key, value) for key, value, _version in scope], fields, limit, markers
    )
    # A lazy scan stops at the row that filled the page; a list was fetched whole.
    lazy = stub.source.startswith("lazy")
    assert pulled == (scope[:visited] if lazy else scope)
    # The answer is the page; its text is rendered only on request, and
    # the size the network charges is that text's length, counted.
    assert response.payload is None
    text = page.payload()
    assert text == _reference_payload(rows, truncated, enveloped, page.plan)
    assert page.size() == len(text)

    # One read per returned row, in key order, digesting like the reference.
    rw_set = stub.rw_set
    versions = {key: version for key, _value, version in scope}
    assert rw_set.reads == [ReadSetEntry(row["key"], versions[row["key"]]) for row in rows]
    assert all(type(read) is ReadSetEntry for read in rw_set.reads)
    reference = canonical_json(rw_set.to_dict())
    assert rw_set.canonical_bytes() == reference
    assert rw_set.digest() == sha256_hex(reference)

    # The carried page is its text, decoded the old way.
    decoded = json.loads(text)
    assert page.enveloped is enveloped is isinstance(decoded, dict)
    decoded_rows = decoded["records"] if enveloped else decoded
    assert [{"key": row.key, "record": row.value} for row in page.rows] == decoded_rows
    if enveloped:
        assert page.bookmark == decoded["bookmark"]
        assert page.plan == decoded.get("plan")
    else:
        assert page.bookmark is None and page.plan is None
    return rows


def _check_query(state, model, selector, sources=None):
    """One ``query`` against the reference; returns the reference's rows."""
    fields = {name: value for name, value in selector.items() if not name.startswith("_")}
    enveloped = any(name in selector for name in ("_limit", "_bookmark", "_explain"))
    stub, response = _invoke(state, "query", [json.dumps(selector, sort_keys=True)])
    if sources is not None:
        sources.add(stub.source)
    scope = None
    if stub.source != "index-keys":
        scope = _in_scope(
            model, prefix=selector.get("_prefix", ""), after=selector.get("_bookmark", "")
        )
    return _check_answer(
        stub, response, fields, selector.get("_limit", 0), False, enveloped, scope
    )


def _check_range(state, model, low, high, *page, sources=None):
    """One ``getbyrange`` (``page`` = limit, bookmark) against the reference."""
    limit, bookmark = page or (0, "")
    stub, response = _invoke(state, "getbyrange", [low, high, *map(str, page)])
    if sources is not None:
        sources.add(stub.source)
    scope = _in_scope(model, low, high, after=bookmark)
    return _check_answer(stub, response, None, limit, not page, bool(page), scope)


@pytest.mark.parametrize("seed", [3, 11, 42, 2024])
def test_scan_answers_match_the_reference_rendering_and_read_set(seed):
    rng = random.Random(seed)
    indexed = WorldState()
    indexed.attach_secondary_index(FieldValueIndex(("creator", "metadata.*")))
    plain = WorldState()
    for state in (indexed, plain):
        model = _random_ledger(random.Random(seed), state)
    sources = set()

    for _ in range(150):
        selector = _random_selector(rng)
        # The access path never changes the rows.
        assert _check_query(indexed, model, selector, sources) == \
            _check_query(plain, model, selector, sources)

    for _ in range(60):
        low, high = sorted([_random_key(rng), _random_key(rng)])
        end = rng.choice([high, ""])
        _check_range(plain, model, low, end, sources=sources)
        _check_range(
            plain, model, low, end, rng.randrange(0, 6), rng.choice(["", _random_key(rng)]),
            sources=sources,
        )

    assert sources == {
        "index-keys", "lazy-prefix", "eager-prefix", "eager-range", "lazy-range",
    }


@pytest.mark.parametrize("seed", [5, 99])
def test_asking_twice_is_equal_and_a_write_moves_exactly_its_row(seed):
    rng = random.Random(seed)
    state = WorldState()
    _random_ledger(rng, state)
    request = [json.dumps({"_prefix": "a/", "_limit": 50, "organization": "org1"})]

    first_stub, first = _invoke(state, "query", request)
    again_stub, again = _invoke(state, "query", request)
    assert again.scan.payload() == first.scan.payload() and again.scan == first.scan
    assert again_stub.rw_set.reads == first_stub.rw_set.reads
    assert again_stub.rw_set.digest() == first_stub.rw_set.digest()
    # Equal, and literally the same objects: nothing was rebuilt per row.
    assert all(a is b for a, b in zip(again_stub.rw_set.reads, first_stub.rw_set.reads))
    assert len(first.scan.rows) > 2

    target = first.scan.rows[1].key
    state.put(target, _record_value(rng, target, 900), (900, 0))
    after_stub, after = _invoke(state, "query", request)
    assert [row.key for row in after.scan.rows] == [row.key for row in first.scan.rows]
    for old, new in zip(first.scan.rows, after.scan.rows):
        if old.key == target:
            assert new.version == (900, 0) and new is not old
        else:
            assert new is old
    moved = [
        (old, new)
        for old, new in zip(first_stub.rw_set.reads, after_stub.rw_set.reads)
        if old != new
    ]
    assert moved == [(ReadSetEntry(target, first.scan.rows[1].version),
                      ReadSetEntry(target, (900, 0)))]
    assert after_stub.rw_set.digest() == sha256_hex(canonical_json(after_stub.rw_set.to_dict()))
    assert after_stub.rw_set.digest() != first_stub.rw_set.digest()


def _scan_rw_set(state):
    stub, _response = _invoke(state, "query", [json.dumps({"_prefix": "", "organization": "org1"})])
    assert len(stub.rw_set.reads) > 20
    return stub.rw_set


def _reference_digest(rw_set) -> str:
    return sha256_hex(canonical_json(rw_set.to_dict()))


def test_cloned_and_hand_extended_read_sets_digest_from_their_own_entries():
    state = WorldState()
    _random_ledger(random.Random(8), state)

    # Hand-appended before the first digest: the scan's lines no longer cover it.
    extended = _scan_rw_set(state)
    extended.reads.append(ReadSetEntry('zz/"late"', (7, 7)))
    assert extended.digest() == _reference_digest(extended)

    # Extended through the API after a scan, and after a digest.
    mixed = _scan_rw_set(state)
    mixed.add_read("zz/point", None)
    assert mixed.digest() == _reference_digest(mixed)
    mixed.extend_reads([ReadSetEntry("zz/more", (1, 2))], ["not the line of that entry"])
    assert mixed.digest() == _reference_digest(mixed)

    # A clone is private: editing it moves its digest and nobody else's.
    original = _scan_rw_set(state)
    assert original.copy().digest() == _reference_digest(original)
    clone = original.copy()
    clone.reads[0] = ReadSetEntry(clone.reads[0].key, (999, 999))
    assert clone.digest() == _reference_digest(clone)
    assert clone.digest() != original.digest() == _reference_digest(original)


def test_a_tampered_block_clone_digests_its_own_reads():
    state = WorldState()
    _random_ledger(random.Random(13), state)
    rw_set = _scan_rw_set(state)
    transaction = Transaction(
        tx_id="tx-scan", channel="ch", chaincode="hyperprov", function="query",
        args=["{}"], rw_set=rw_set,
    ).seal()
    sealed_digest = rw_set.digest()
    assert sealed_digest == _reference_digest(rw_set)
    block = Block.build(1, "00" * 32, [transaction], timestamp=1.0)
    assert block.verify_data_hash()

    assert transaction.tamper().rw_set.digest() == sealed_digest

    clone = block.tamper(0)
    assert clone is not transaction and clone.rw_set is not rw_set
    read = clone.rw_set.reads[3]
    clone.rw_set.reads[3] = ReadSetEntry(read.key, (read.version[0] + 1, 0))
    assert clone.rw_set.digest() == _reference_digest(clone.rw_set) != sealed_digest
    assert not block.verify_data_hash()
    # The shared original — and the world-state versions behind it — did not move.
    assert rw_set.digest() == sealed_digest == _reference_digest(rw_set)
    assert state.get(read.key).read == read


# ------------------------------------------------------- the run, not the rows
def _hot_state(count: int):
    """``k/00000…`` records, every fourth one hot; returns state and model."""
    rng = random.Random(count)
    state, model = WorldState(), {}
    for index in range(count):
        key = f"k/{index:05d}"
        document = json.loads(_record_value(rng, key, index))
        document["metadata"] = {"hot": index % 4 == 3}
        model[key] = (json.dumps(document), (index, 0))
        state.put(key, *model[key])
    return state, model


def _collect(candidates, match, limit):
    stub = ChaincodeStub(
        tx_id="tx", channel="ch", function="query", args=[],
        world_state=WorldState(), history=HistoryDatabase(),
    )
    rows, truncated = HyperProvChaincode._collect(stub, candidates, match, limit)
    return rows, truncated, stub.rw_set


def test_a_filled_page_reads_its_rows_and_stops_at_the_filling_row_whoever_hands_the_run_over():
    state, model = _hot_state(40)
    run = state.range_query_versioned("", "")
    match = compile_row_predicate({"metadata.hot": True})
    pulls = []

    def traced(scan):
        # What the benchmark's tracer makes of a lazy scan: a plain generator.
        for row in scan:
            pulls.append(row.key)
            yield row

    # Rows 3, 7 and 11 are hot: the third hit is the twelfth candidate.
    lazy_shapes = {
        "ledger": state.iter_by_range_versioned("", ""),
        "list iterator": iter(run),
        "generator": traced(state.iter_by_prefix_versioned("k/")),
    }
    expected_reads = [ReadSetEntry(key, model[key][1]) for key in ("k/00003", "k/00007", "k/00011")]
    for shape, candidates in lazy_shapes.items():
        rows, truncated, rw_set = _collect(candidates, match, 3)
        assert [row.key for row in rows] == ["k/00003", "k/00007", "k/00011"], shape
        assert truncated and rw_set.reads == expected_reads, shape
        assert rw_set.digest() == sha256_hex(canonical_json(rw_set.to_dict())), shape
        # Nothing was taken from the scan behind the page's back either.
        assert next(candidates).key == "k/00012", shape
    assert pulls == sorted(model)[:13]

    # A list fetched in full gives the same rows and the same reads.
    rows, truncated, rw_set = _collect(run, match, 3)
    assert [row.key for row in rows] == ["k/00003", "k/00007", "k/00011"] and truncated
    assert rw_set.reads == expected_reads

    # A page that does not fill walks its whole run and reads its rows, lazy or not.
    for candidates in (iter(run), run, traced(iter(run))):
        rows, truncated, rw_set = _collect(candidates, match, 11)
        assert len(rows) == 10 and not truncated
        assert rw_set.reads == [ReadSetEntry(row.key, row.version) for row in rows]
    # No predicate, no marker filter, no limit: the run is the page.
    stub = ChaincodeStub("tx", "ch", "getbyrange", [], WorldState(), HistoryDatabase())
    assert HyperProvChaincode._collect(stub, iter(run), markers=True) == (tuple(run), False)


class _CountingDict(dict):
    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


@pytest.mark.parametrize("request_args", [
    ("query", {"_prefix": "k/", "_limit": 5}),
    ("query", {"_prefix": "k/", "_limit": 5, "_bookmark": "k/04999"}),
    ("query", {"_prefix": "", "_limit": 5, "organization": "org1"}),
    ("getbyrange", ["k/02000", "", "5", ""]),
    ("getbyrange", ["", "k/09000", "5", "k/00017"]),
])
def test_a_five_row_page_over_ten_thousand_keys_pulls_five_rows(request_args):
    state, _model = _hot_state(10_000)
    state._data = counting = _CountingDict(state._data)
    function, request = request_args
    args = [json.dumps(request)] if function == "query" else request
    stub, response = _invoke(state, function, args)
    assert len(response.scan.rows) == 5 and response.scan.bookmark == response.scan.rows[-1].key
    assert len(stub.pulled) == len(stub.rw_set.reads) == 5
    # Behind the rows pulled the ledger looks keys up a chunk at a time.
    assert 5 <= counting.lookups <= WorldState._SCAN_LOOKAHEAD


def test_tombstones_compaction_and_reputs_stay_on_the_reference():
    rng = random.Random(17)
    state, model = WorldState(), {}
    for index in range(40):
        key = f"k/{index:02d}"
        model[key] = (_record_value(rng, key, index), (1, index))
        state.put(key, *model[key])

    def delete(key, step):
        state.delete(key, (step, 0))
        del model[key]

    def check(bookmarks):
        _check_query(state, model, {"_prefix": "k/"})
        _check_range(state, model, "", "")
        _check_range(state, model, "k/05", "k/31")
        for bookmark in bookmarks:
            for limit in (0, 3):
                _check_query(state, model, {"_prefix": "k/", "_bookmark": bookmark, "_limit": limit})
                _check_range(state, model, "k/02", "", limit, bookmark)

    # Ten tombstones: under the compaction floor, the index still lists them.
    for index in range(4, 34, 3):
        delete(f"k/{index:02d}", 2)
    assert len(state._index.keys) == 40 and len(state) == 30
    check(["k/04", "k/07", "k/08", "k/31", "k/39"])  # deleted, deleted, live, deleted, last

    # Re-putting a tombstoned key brings it back once, at its place.
    model["k/07"] = (_record_value(rng, "k/07", 3), (3, 0))
    state.put("k/07", *model["k/07"])
    check(["k/06", "k/07"])

    # At twenty tombstones of forty keys the index compacts (and gathers new
    # tombstones after); the deleted names stay usable as bookmarks and
    # scans do not notice.
    for index in range(0, 40, 2):
        if f"k/{index:02d}" in model:
            delete(f"k/{index:02d}", 4)
    assert len(state) < len(state._index.keys) < 40
    check(["k/04", "k/10", "k/11", "k/38"])
    model["k/10"] = (_record_value(rng, "k/10", 5), (5, 0))
    state.put("k/10", *model["k/10"])
    check(["k/09", "k/10"])


EDGE = "\U0010ffff"


def test_prefix_edges_stay_on_the_reference():
    rng = random.Random(23)
    state, model = WorldState(), {}
    keys = [
        "a", "a/", "a/1", "a/1/x", f"a/{EDGE}", f"a/{EDGE}{EDGE}", f"a/{EDGE}/x", "a0", "ab/1",
        "b/1", EDGE, EDGE * 2, f"{EDGE}/z", "tenant", "tenant/a/1", "tenant/b", "tenantx/y",
    ]
    for step, key in enumerate(keys):
        model[key] = (_record_value(rng, key, step), (step, 0))
        state.put(key, *model[key])
    prefixes = [
        "a", "a/", "a/1", f"a/{EDGE}", f"a/{EDGE}{EDGE}", EDGE, EDGE * 2, EDGE * 3,
        "tenant", "tenant/", "tenant/b", "zz", "zz/",
    ]
    for prefix in prefixes:
        rows = _check_query(state, model, {"_prefix": prefix})
        assert [row["key"] for row in rows] == sorted(k for k in keys if k.startswith(prefix))
        for bookmark in ("", "a/1", f"a/{EDGE}", EDGE, "tenant/a"):
            _check_query(state, model, {"_prefix": prefix, "_bookmark": bookmark, "_limit": 2})
    # The empty prefix needs a field beside it; it walks the whole key space.
    rows = _check_query(state, model, {"_prefix": "", "organization": "org1"})
    assert [row["key"] for row in rows] == sorted(keys)


# ------------------------------------------------------------- size, not text
def _random_rows(rng: random.Random, count: int):
    return tuple(
        VersionedValue(_random_value(rng, key, step), (step, 0), key)
        for step, key in enumerate(sorted({_random_key(rng) for _ in range(count)}))
    )


@pytest.mark.parametrize("seed", [1, 19, 77])
def test_a_pages_size_is_its_texts_length_in_every_shape(seed):
    rng = random.Random(seed)
    for _ in range(40):
        rows = _random_rows(rng, rng.randrange(6))
        bookmark = rows[-1].key if rows and rng.random() < 0.5 else None
        plan = {"access_path": _text(rng), "residual_fields": [_text(rng)], "n": rng.random()}
        shapes = [
            ScanPage(rows),
            ScanPage(rows, enveloped=True),
            ScanPage(rows, bookmark, enveloped=True),
            ScanPage(rows, bookmark, plan, enveloped=True),
        ]
        for page in shapes:
            reference = [{"key": row.key, "record": row.value} for row in rows]
            if page.enveloped:
                reference = {"records": reference, "bookmark": page.bookmark}
                if page.plan is not None:
                    reference["plan"] = page.plan
            assert page.payload() == json.dumps(reference)
            assert page.size() == len(page.payload())


def _reference_history(entries):
    """The parent's ``getkeyhistory`` text: ``json.dumps`` of the entry dicts."""
    return json.dumps([
        {
            "tx_id": entry.tx_id,
            "block": entry.block_number,
            "timestamp": entry.timestamp,
            "is_delete": entry.is_delete,
            "value": entry.value,
        }
        for entry in entries
    ])


@pytest.mark.parametrize("seed", [2, 31, 404])
def test_a_history_answer_is_the_keys_entries_and_sizes_its_text(seed):
    rng = random.Random(seed)
    history = HistoryDatabase()
    keys = ["k", 'q"\\', "é/😀"]
    for block in range(60):
        key = rng.choice(keys)
        deleted = rng.random() < 0.2
        history.record(
            key, _text(rng, 6) or "tx", block, rng.randrange(3),
            rng.choice([rng.random() * 1e4, float(block), 1e-7 * block, 1e21]),
            None if deleted else _random_value(rng, key, block), is_delete=deleted,
        )
    for key in keys:
        stub = ChaincodeStub(
            tx_id="tx", channel="ch", function="getkeyhistory", args=[key],
            world_state=WorldState(), history=history,
        )
        response = HyperProvChaincode().invoke(stub)
        assert response.is_ok and response.payload is None
        page = response.history
        assert list(page.entries) == history.history_for_key(key)
        text = page.payload()
        assert text == _reference_history(page.entries)
        assert page.size() == len(text)
    # The empty page, and a hand-built one with awkward fields.
    assert HistoryPage(()).payload() == "[]" and HistoryPage(()).size() == 2
    odd = HistoryPage((
        HistoryEntry("k", '"\\\n\x00é', 0, 0, 0.1, None, True),
        HistoryEntry("k", "t", 7, 1, 3, "\x1f😀", False),
    ))
    assert odd.payload() == _reference_history(odd.entries)
    assert odd.size() == len(odd.payload())
