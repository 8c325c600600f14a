"""Randomized oracle tests: the indexed WorldState vs a naive sorted scan.

The production :class:`WorldState` keeps a bisect-maintained sorted key
index with lazily compacted tombstones plus a secondary prefix index.
These tests drive it with interleaved put/delete sequences and assert
that every query surface (range, prefix, delete, version lookups,
iteration order) matches a trivially correct reference implementation
that re-sorts the whole key space per call — the seed implementation.
"""

import random

import pytest

from repro.ledger.world_state import WorldState


class NaiveWorldState:
    """Reference oracle: a dict re-sorted on every query (seed behaviour)."""

    def __init__(self):
        self._data = {}

    def put(self, key, value, version):
        self._data[key] = (value, version)

    def delete(self, key, version):
        self._data.pop(key, None)

    def keys(self):
        return sorted(self._data)

    def items(self):
        return [(key, self._data[key]) for key in sorted(self._data)]

    def get_value(self, key):
        entry = self._data.get(key)
        return entry[0] if entry else None

    def get_version(self, key):
        entry = self._data.get(key)
        return entry[1] if entry else None

    def range_query(self, start_key, end_key):
        results = []
        for key in sorted(self._data):
            if key < start_key:
                continue
            if end_key and key >= end_key:
                break
            results.append((key, self._data[key][0]))
        return results

    def query_by_prefix(self, prefix):
        return [
            (key, self._data[key][0])
            for key in sorted(self._data)
            if key.startswith(prefix)
        ]


def pairs(entries):
    return [(entry.key, entry.value) for entry in entries]


def range_pairs(state, low, high):
    return pairs(state.range_query_versioned(low, high))


def prefix_pairs(state, prefix):
    return pairs(state.query_by_prefix_versioned(prefix))


def live_keys(state):
    return [entry.key for entry in state.range_query_versioned("", "")]


def value_of(state, key):
    entry = state.get(key)
    return entry.value if entry is not None else None


def _random_key(rng: random.Random) -> str:
    segment = rng.choice(["tenant", "perf", "iot", "x", "audit"])
    # Small key space on purpose: collisions exercise re-puts of deleted
    # and overwritten keys.
    return f"{segment}/{rng.randrange(60):03d}"


def _assert_equivalent(state: WorldState, oracle: NaiveWorldState, rng: random.Random):
    assert live_keys(state) == oracle.keys()
    assert [entry.key for entry in state.iter_by_range_versioned("", "")] == oracle.keys()
    assert len(state) == len(oracle.keys())
    # Point lookups (hits and misses) agree, including versions.
    for key in oracle.keys()[:5] + [_random_key(rng) for _ in range(5)]:
        assert value_of(state, key) == oracle.get_value(key)
        assert state.get_version(key) == oracle.get_version(key)
        assert (state.get(key) is not None) == (oracle.get_value(key) is not None)
    # Range queries, including open-ended and empty ranges.
    bounds = sorted([_random_key(rng), _random_key(rng)])
    assert range_pairs(state, bounds[0], bounds[1]) == oracle.range_query(*bounds)
    assert range_pairs(state, "", "") == oracle.range_query("", "")
    assert range_pairs(state, bounds[1], bounds[0]) == \
        oracle.range_query(bounds[1], bounds[0])
    # Prefix queries: bucket-resolved, cross-bucket, and missing prefixes.
    for prefix in ("tenant/", "perf/0", "", "nosuch/", "x", _random_key(rng)):
        assert prefix_pairs(state, prefix) == oracle.query_by_prefix(prefix)


@pytest.mark.parametrize("seed", [1, 7, 42, 1337])
def test_indexed_world_state_matches_naive_oracle(seed):
    rng = random.Random(seed)
    state = WorldState()
    oracle = NaiveWorldState()
    for step in range(600):
        key = _random_key(rng)
        version = (step // 10, step % 10)
        # Delete-heavy mix so tombstone compaction triggers repeatedly.
        if rng.random() < 0.45:
            state.delete(key, version)
            oracle.delete(key, version)
        else:
            value = f"value-{step}"
            state.put(key, value, version)
            oracle.put(key, value, version)
        if step % 37 == 0:
            _assert_equivalent(state, oracle, rng)
    _assert_equivalent(state, oracle, rng)


EDGE = "\U0010ffff"  # no code point sorts after it: a prefix ending here has no "next" string


def test_prefix_and_bookmark_edges_match_the_naive_oracle():
    state = WorldState()
    oracle = NaiveWorldState()
    keys = [
        "a", "a/", "a/1", "a/1/x", f"a/{EDGE}", f"a/{EDGE}{EDGE}", f"a/{EDGE}/x", "a0", "ab/1",
        "b/1", EDGE, EDGE * 2, f"{EDGE}/z", "tenant", "tenant/a/1", "tenant/b", "tenantx/y",
    ]
    for step, key in enumerate(keys):
        for store in (state, oracle):
            store.put(key, f"v{step}", (0, step))
    for store in (state, oracle):
        store.delete("a/1", (1, 0))
    # Ends in U+10FFFF, is a whole key, is a deleted key, has no separator
    # (spans buckets), names no bucket, is empty.
    prefixes = [
        "", "a", "a/", "a/1", f"a/{EDGE}", f"a/{EDGE}{EDGE}", f"a/{EDGE}/x", EDGE, EDGE * 2,
        EDGE * 3, "tenant", "tenant/", "tenantx/y", "zz", "zz/",
    ]
    for prefix in prefixes:
        expected = oracle.query_by_prefix(prefix)
        assert prefix_pairs(state, prefix) == expected
        versions = state.query_by_prefix_versioned(prefix)
        assert [(entry.key, entry.value) for entry in versions] == expected
        assert all(entry is state.get(entry.key) for entry in versions)
        for bookmark in ["", "a/1", f"a/{EDGE}", EDGE * 2, "tenant/a", "zzz"] + keys:
            resumed = state.iter_by_prefix_versioned(prefix, bookmark)
            assert [(entry.key, entry.value) for entry in resumed] == [
                pair for pair in expected if pair[0] > bookmark
            ], (prefix, bookmark)
    for low in ["", "a/1", f"a/{EDGE}", EDGE]:
        for high in ["", "a0", EDGE, EDGE * 2, "a"]:
            expected = oracle.range_query(low, high)
            assert range_pairs(state, low, high) == expected
            for bookmark in ["", "a/1", f"a/{EDGE}{EDGE}", "b/1"]:
                resumed = state.iter_by_range_versioned(low, high, bookmark)
                assert [(entry.key, entry.value) for entry in resumed] == [
                    pair for pair in expected if pair[0] > bookmark
                ], (low, high, bookmark)


def test_delete_then_reput_does_not_duplicate_index_entries():
    state = WorldState()
    for round_number in range(40):
        state.put("a/1", f"v{round_number}", (round_number, 0))
        state.delete("a/1", (round_number, 1))
    state.put("a/1", "final", (99, 0))
    assert live_keys(state) == ["a/1"]
    assert range_pairs(state, "", "") == [("a/1", "final")]
    assert prefix_pairs(state, "a/") == [("a/1", "final")]


def test_mass_delete_triggers_compaction_and_queries_stay_correct():
    state = WorldState()
    for index in range(500):
        state.put(f"k/{index:04d}", str(index), (0, index))
    for index in range(0, 500, 2):
        state.delete(f"k/{index:04d}", (1, index))
    survivors = [f"k/{index:04d}" for index in range(1, 500, 2)]
    assert live_keys(state) == survivors
    assert [key for key, _ in range_pairs(state, "k/0100", "k/0110")] == [
        "k/0101", "k/0103", "k/0105", "k/0107", "k/0109"
    ]
    assert len(prefix_pairs(state, "k/")) == len(survivors)


def test_bulk_delete_while_iterating_items_is_safe():
    """Regression: a compaction triggered mid-iteration must not shift the
    scan's positions (the pre-index code iterated a sorted() snapshot)."""
    state = WorldState()
    for index in range(100):
        state.put(f"k{index:03d}", "v", (0, index))
    seen = []
    for entry in state.iter_by_range_versioned("", ""):
        seen.append(entry.key)
        state.delete(entry.key, (1, 0))
    assert seen == [f"k{index:03d}" for index in range(100)]
    assert len(state) == 0
    assert live_keys(state) == []


def test_snapshot_matches_live_state_after_interleaving():
    rng = random.Random(3)
    state = WorldState()
    oracle = NaiveWorldState()
    for step in range(200):
        key = _random_key(rng)
        if rng.random() < 0.3:
            state.delete(key, (0, step))
            oracle.delete(key, (0, step))
        else:
            state.put(key, str(step), (0, step))
            oracle.put(key, str(step), (0, step))
    assert state.snapshot() == {key: oracle.get_value(key) for key in oracle.keys()}
