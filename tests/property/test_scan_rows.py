"""Randomized reference tests: a scan's payload, read set and carried rows.

A scan (``query``, both forms of ``getbyrange``) answers with a payload
string *and* the committed versions it matched (``ChaincodeResponse.scan``);
its read set is appended from what each visited version already carries.
For random ledgers — quotes, backslashes, control characters and non-ASCII
in keys and values, ``__`` marker keys, values that are not JSON objects,
updates and deletes — and random requests over all six candidate sources,
these tests pin, against a reference kept here:

* the payload is byte-for-byte the ``json.dumps`` of the row dicts the
  reference loop builds (the response's external surface did not move);
* the reads are one entry per candidate the scan pulled, in pull order,
  and the digest is ``sha256(canonical_json(rw_set.to_dict()))``;
* the carried rows, bookmark and plan are the payload's, decoded;
* asking twice gives equal answers (the second from filled fragments) and
  a write in between changes exactly the written row;
* cloned, tampered and hand-extended read sets digest from their own
  entries, never from the scan's cached lines.
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
from repro.ledger.history import HistoryDatabase
from repro.ledger.transaction import ReadSetEntry, Transaction
from repro.ledger.world_state import WorldState
from repro.query.indexes import FieldValueIndex
from repro.query.selectors import compile_selector

AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "ø", " ", "😀", "'", "{", "]"]
SEGMENTS = ["a", "b", '"q"', "é\\", "__m"]
STATIONS = ["tromso", 'al"ta', "vardø", "x\\y"]
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
        dependencies=[_random_key(rng)] if rng.random() < 0.3 else [],
        metadata=metadata,
        timestamp=float(step),
    ).to_json()


def _random_ledger(rng: random.Random, state: WorldState, steps: int = 220) -> None:
    state.put("__hyperprov_initialized__", "true", (0, 0))
    live = []
    for step in range(1, steps + 1):
        if live and rng.random() < 0.15:
            state.delete(live.pop(rng.randrange(len(live))), (step, 0))
            continue
        key = _random_key(rng)
        state.put(key, _random_value(rng, key, step), (step, rng.randrange(4)))
        if key not in live:
            live.append(key)


def _random_selector(rng: random.Random) -> dict:
    selector = {}
    if rng.random() < 0.5:
        selector["creator"] = rng.choice(["cam", 'g"w', "ø"])
    if rng.random() < 0.5:
        selector["metadata.station"] = rng.choice(STATIONS)
    if rng.random() < 0.3:
        selector["metadata.hot"] = rng.random() < 0.5
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


def _reference_rows(pulled, predicates, limit, markers):
    """The parent's scan loop: row dicts and whether the page filled."""
    rows = []
    for key, entry in pulled:
        if not markers and key.startswith("__"):
            continue
        if predicates is not None:
            try:
                document = json.loads(entry.value)
            except ValueError:
                continue
            if not isinstance(document, dict) or not all(check(document) for check in predicates):
                continue
        rows.append({"key": key, "record": entry.value})
        if limit and len(rows) >= limit:
            return rows, True
    return rows, False


def _reference_payload(rows, truncated, enveloped, plan):
    """The parent's rendering: ``json.dumps`` of the rows, or of their envelope."""
    if not enveloped:
        return json.dumps(rows)
    envelope = {"records": rows, "bookmark": rows[-1]["key"] if truncated else None}
    if plan is not None:
        envelope["plan"] = plan
    return json.dumps(envelope)


def _check_answer(stub, response, predicates, limit, markers, enveloped):
    page = response.scan
    rows, truncated = _reference_rows(stub.pulled, predicates, limit, markers)
    assert response.payload == _reference_payload(rows, truncated, enveloped, page.plan)

    # One read per pulled candidate, in pull order, digesting like the reference.
    rw_set = stub.rw_set
    assert rw_set.reads == [ReadSetEntry(key, entry.version) for key, entry in stub.pulled]
    assert all(type(read) is ReadSetEntry for read in rw_set.reads)
    reference = canonical_json(rw_set.to_dict())
    assert rw_set.canonical_bytes() == reference
    assert rw_set.digest() == sha256_hex(reference)

    # The carried page is the payload, decoded the old way.
    decoded = json.loads(response.payload)
    assert page.enveloped is enveloped is isinstance(decoded, dict)
    decoded_rows = decoded["records"] if enveloped else decoded
    assert [{"key": row.key, "record": row.value} for row in page.rows] == decoded_rows
    if enveloped:
        assert page.bookmark == decoded["bookmark"]
        assert page.plan == decoded.get("plan")
    else:
        assert page.bookmark is None and page.plan is None
    return rows


@pytest.mark.parametrize("seed", [3, 11, 42, 2024])
def test_scan_answers_match_the_reference_rendering_and_read_set(seed):
    rng = random.Random(seed)
    indexed = WorldState()
    indexed.attach_secondary_index(FieldValueIndex(("creator", "metadata.*")))
    plain = WorldState()
    for state in (indexed, plain):
        _random_ledger(random.Random(seed), state)
    sources = set()

    for _ in range(150):
        selector = _random_selector(rng)
        predicates = compile_selector(
            {name: value for name, value in selector.items() if not name.startswith("_")}
        )
        enveloped = any(name in selector for name in ("_limit", "_bookmark", "_explain"))
        answers = []
        for state in (indexed, plain):
            stub, response = _invoke(state, "query", [json.dumps(selector, sort_keys=True)])
            sources.add(stub.source)
            rows = _check_answer(
                stub, response, predicates, selector.get("_limit", 0), False, enveloped
            )
            answers.append(rows)
        assert answers[0] == answers[1]  # the access path never changes the rows

    for _ in range(60):
        low, high = sorted([_random_key(rng), _random_key(rng)])
        end = rng.choice([high, ""])
        stub, response = _invoke(plain, "getbyrange", [low, end])
        sources.add(stub.source)
        _check_answer(stub, response, None, 0, True, False)
        limit = rng.randrange(0, 6)
        bookmark = rng.choice(["", _random_key(rng)])
        stub, response = _invoke(plain, "getbyrange", [low, end, str(limit), bookmark])
        sources.add(stub.source)
        _check_answer(stub, response, None, limit, False, True)

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
    assert again.payload == first.payload and again.scan == first.scan
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
