"""Tests for deterministic ids and canonical serialization."""

from dataclasses import dataclass

import pytest

from repro.common.ids import IdGenerator, short_uid
from repro.common.serialization import canonical_json


def test_short_uid_is_stable():
    assert short_uid("hello") == short_uid("hello")
    assert short_uid("hello") != short_uid("world")


def test_short_uid_length():
    assert len(short_uid("x", length=8)) == 8


def test_id_generator_sequence_is_deterministic():
    first = IdGenerator("tx")
    second = IdGenerator("tx")
    assert [first.next() for _ in range(5)] == [second.next() for _ in range(5)]


def test_id_generator_unique_within_run():
    gen = IdGenerator("tx")
    ids = [gen.next() for _ in range(100)]
    assert len(set(ids)) == 100


def test_id_generator_prefix_embedded():
    gen = IdGenerator("block")
    assert gen.next().startswith("block-0-")


# --------------------------------------------------------------------------- serialization
def test_canonical_json_sorts_keys():
    assert canonical_json({"b": 1, "a": 2}) == b'{"a":2,"b":1}'


def test_canonical_json_equal_objects_equal_bytes():
    left = {"x": [1, 2, 3], "y": {"nested": True}}
    right = {"y": {"nested": True}, "x": [1, 2, 3]}
    assert canonical_json(left) == canonical_json(right)


def test_canonical_json_encodes_bytes_as_hex():
    assert canonical_json({"data": b"\x00\x01"}) == b'{"data":{"__bytes__":"0001"}}'


def test_canonical_json_handles_sets_deterministically():
    assert canonical_json({"s": {3, 1, 2}}) == b'{"s":[1,2,3]}'


def test_canonical_json_handles_dataclasses():
    @dataclass
    class Point:
        x: int
        y: int

    assert canonical_json(Point(1, 2)) == b'{"x":1,"y":2}'


def test_canonical_json_rejects_unserializable_objects():
    with pytest.raises(TypeError):
        canonical_json({"f": object()})

