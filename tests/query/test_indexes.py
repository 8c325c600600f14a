"""Unit tests for the field-value secondary index and its ledger attachment."""

import pytest

from repro.chaincode.records import ProvenanceRecord
from repro.common.errors import ValidationError
from repro.common.hashing import checksum_of
from repro.ledger.world_state import WorldState
from repro.query.indexes import (
    DEFAULT_INDEX_FIELDS,
    FieldValueIndex,
    validate_index_fields,
)
from tests.internals import indexed_keys, postings


def record_json(key, creator="client1", organization="org1", metadata=None):
    return ProvenanceRecord(
        key=key,
        checksum=checksum_of(key.encode()),
        location=f"ssh://storage/{key}",
        creator=creator,
        organization=organization,
        certificate_fingerprint="fp",
        metadata=metadata or {},
    ).to_json()


# ------------------------------------------------------------- validation
def test_validate_accepts_record_fields_metadata_paths_and_wildcard():
    fields = validate_index_fields(
        ["creator", "metadata.station", "metadata.*", "checksum"]
    )
    assert fields == ("creator", "metadata.station", "metadata.*", "checksum")


def test_validate_collapses_duplicates_preserving_order():
    assert validate_index_fields(["creator", "checksum", "creator"]) == (
        "creator",
        "checksum",
    )


@pytest.mark.parametrize(
    "bad",
    [
        ["no_such_field"],
        ["dependencies"],  # container field: membership, not equality
        ["metadata"],  # container field
        ["metadata."],  # needs a key (or the wildcard)
        [""],
        [None],
        [],
    ],
)
def test_validate_rejects_bad_field_lists(bad):
    with pytest.raises(ValidationError):
        validate_index_fields(bad)


def test_default_fields_are_valid():
    assert validate_index_fields(DEFAULT_INDEX_FIELDS) == DEFAULT_INDEX_FIELDS


# --------------------------------------------------------------- coverage
def test_covers_exact_fields_and_wildcard_metadata():
    index = FieldValueIndex(["creator", "metadata.*"])
    assert index.covers("creator")
    assert index.covers("metadata.station")
    assert not index.covers("checksum")
    assert not index.covers("metadata.")  # empty key is never servable
    assert not index.covers("organization")


def test_without_wildcard_only_named_metadata_paths_are_covered():
    index = FieldValueIndex(["metadata.station"])
    assert index.covers("metadata.station")
    assert not index.covers("metadata.other")


# ------------------------------------------------------------ maintenance
def test_update_posts_and_lookup_finds_keys():
    index = FieldValueIndex(["creator"])
    index.update("a", record_json("a", creator="alice"))
    index.update("b", record_json("b", creator="alice"))
    index.update("c", record_json("c", creator="bob"))
    assert index.lookup("creator", "alice") == {"a", "b"}
    assert index.lookup("creator", "bob") == {"c"}
    assert index.cardinality("creator", "alice") == 2
    assert len(indexed_keys(index)) == 3


def test_missing_field_is_posted_under_its_from_json_default():
    """A document without ``creator`` must be reachable via ``creator == ""``,
    matching the selector predicate's default-filling semantics."""
    index = FieldValueIndex(["creator"])
    index.update("bare", '{"key": "bare"}')
    assert index.lookup("creator", "") == {"bare"}


def test_overwrite_moves_postings_to_the_new_value():
    index = FieldValueIndex(["creator"])
    index.update("a", record_json("a", creator="alice"))
    index.update("a", record_json("a", creator="bob"))
    assert index.lookup("creator", "alice") == set()
    assert index.lookup("creator", "bob") == {"a"}
    assert len(indexed_keys(index)) == 1


def test_remove_drops_every_posting():
    index = FieldValueIndex(["creator", "metadata.*"])
    index.update("a", record_json("a", creator="alice", metadata={"station": "tromso"}))
    index.remove("a")
    assert index.lookup("creator", "alice") == set()
    assert index.lookup("metadata.station", "tromso") == set()
    assert len(indexed_keys(index)) == 0
    assert postings(index, "creator") == {}


def test_remove_is_idempotent():
    index = FieldValueIndex(["creator"])
    index.update("a", record_json("a"))
    index.remove("a")
    index.remove("a")
    assert len(indexed_keys(index)) == 0


def test_wildcard_posts_every_scalar_metadata_entry():
    index = FieldValueIndex(["metadata.*"])
    index.update(
        "a",
        record_json("a", metadata={"station": "tromso", "run": 7, "tags": ["x"]}),
    )
    assert index.lookup("metadata.station", "tromso") == {"a"}
    assert index.lookup("metadata.run", 7) == {"a"}
    # Unhashable values are never posted; those selectors stay on the scan.
    assert index.lookup("metadata.tags", ("x",)) == set()


def test_exact_metadata_entry_is_not_double_posted_with_wildcard():
    index = FieldValueIndex(["metadata.station", "metadata.*"])
    index.update("a", record_json("a", metadata={"station": "tromso"}))
    assert index.lookup("metadata.station", "tromso") == {"a"}
    assert postings(index, "metadata.station") == {"tromso": {"a"}}


def test_malformed_document_gets_no_postings():
    index = FieldValueIndex(["creator"])
    index.update("broken", "not json at all")
    assert len(indexed_keys(index)) == 0
    assert index.lookup("creator", "") == set()


def test_lookup_on_uncovered_field_is_none():
    index = FieldValueIndex(["creator"])
    assert index.lookup("checksum", "x") is None
    assert index.cardinality("checksum", "x") == 0


# ----------------------------------------------------- ledger attachment
def test_attach_reindexes_existing_committed_state():
    state = WorldState()
    state.put("a", record_json("a", creator="alice"), (0, 0))
    state.put("b", record_json("b", creator="bob"), (0, 1))
    index = FieldValueIndex(["creator"])
    state.attach_secondary_index(index)
    assert state.secondary_index is index
    assert index.lookup("creator", "alice") == {"a"}
    assert index.lookup("creator", "bob") == {"b"}


def test_index_is_maintained_transactionally_with_put_and_delete():
    state = WorldState()
    index = FieldValueIndex(["creator"])
    state.attach_secondary_index(index)
    state.put("a", record_json("a", creator="alice"), (0, 0))
    assert index.lookup("creator", "alice") == {"a"}
    state.put("a", record_json("a", creator="bob"), (0, 1))
    assert index.lookup("creator", "alice") == set()
    assert index.lookup("creator", "bob") == {"a"}
    state.delete("a", (0, 2))
    assert index.lookup("creator", "bob") == set()
    assert len(indexed_keys(index)) == 0


def test_delete_then_reput_does_not_duplicate_postings():
    state = WorldState()
    index = FieldValueIndex(["creator"])
    state.attach_secondary_index(index)
    for round_number in range(25):
        state.put("a", record_json("a", creator="alice"), (round_number, 0))
        state.delete("a", (round_number, 1))
    state.put("a", record_json("a", creator="alice"), (99, 0))
    assert index.lookup("creator", "alice") == {"a"}
    assert index.cardinality("creator", "alice") == 1


def test_detaching_stops_maintenance():
    state = WorldState()
    index = FieldValueIndex(["creator"])
    state.attach_secondary_index(index)
    state.put("a", record_json("a", creator="alice"), (0, 0))
    state.attach_secondary_index(None)
    assert state.secondary_index is None
    state.put("b", record_json("b", creator="alice"), (0, 1))
    assert index.lookup("creator", "alice") == {"a"}
