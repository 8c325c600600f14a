"""Randomized oracle tests: the indexed WorldState vs a naive sorted scan.

The production :class:`WorldState` keeps a sorted key index with lazily
compacted tombstones plus a secondary prefix index, and merges new keys
into both only at the next ordered read.  These tests drive it with
interleaved put/delete sequences and assert that every query surface
(range, prefix, estimate, delete, version lookups, iteration order)
matches a trivially correct reference implementation that re-sorts the
whole key space per call — the seed implementation.
"""

import random

import pytest
from hypothesis import given, strategies as st

from repro.ledger.world_state import WorldState
from tests.property_budgets import budget


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
    return pairs(state.query_by_prefix_versioned(prefix, ()))


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
        versions = state.query_by_prefix_versioned(prefix, ())
        assert [(entry.key, entry.value) for entry in versions] == expected
        assert all(entry is state.get(entry.key) for entry in versions)
        for bookmark in ["", "a/1", f"a/{EDGE}", EDGE * 2, "tenant/a", "zzz"] + keys:
            resumed = state.iter_by_prefix_versioned(prefix, (), bookmark)
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


@pytest.mark.parametrize("scan", [
    lambda state: state.iter_by_prefix_versioned("k/", ()),
    lambda state: state.iter_by_range_versioned("k/", "k0"),
], ids=["prefix", "range"])
def test_a_lazy_scan_pulled_across_new_keys_hands_out_each_old_key_once(scan):
    """Regression: a put of a new key shifted the positions a lazy scan's
    next chunk read, so it repeated ``k/108…`` and dropped ``k/180…``."""
    state = WorldState()
    old = [f"k/{index:03d}" for index in range(0, 200, 2)]
    for key in old:
        state.put(key, "v", (0, 0))
    rows = scan(state)
    seen = [next(rows).key for _ in range(10)]
    for index in range(1, 20, 2):
        state.put(f"k/{index:03d}", "v", (1, index))
    seen.extend(row.key for row in rows)
    assert seen == old


def test_a_lazy_scan_hands_out_a_key_put_past_its_position():
    state = WorldState()
    for index in range(0, 200, 2):
        state.put(f"k/{index:03d}", "v", (0, 0))
    rows = state.iter_by_prefix_versioned("k/", ())
    seen = [next(rows).key for _ in range(10)]
    state.put("k/001", "v", (1, 0))
    state.put("k/151", "v", (1, 1))
    seen.extend(row.key for row in rows)
    assert seen == sorted(f"k/{index:03d}" for index in [*range(0, 200, 2), 151])


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


SEGMENTS = ("a", "b", "tenant")
#: Keys of every first segment, and some with no separator at all.
KEYS = st.one_of(
    st.builds("{}/{:03d}".format, st.sampled_from(SEGMENTS), st.integers(0, 199)),
    st.sampled_from(["a", "tenant", "b0"]),
)
#: What a burst draws its keys from.
UNIVERSE = [f"{segment}/{index:03d}" for segment in SEGMENTS for index in range(200)]
PREFIXES = st.sampled_from(["", "a", "a/", "a/0", "b/", "b/19", "tenant", "tenant/", "zz/"])
#: A burst puts or deletes this many keys back to back, so one merge may
#: take anything from none to a third of the universe.
BURSTS = st.integers(0, 200)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS),
        st.tuples(st.just("delete"), KEYS),
        st.tuples(st.just("put burst"), BURSTS, st.integers(0, 2**16)),
        st.tuples(st.just("delete burst"), BURSTS, st.integers(0, 2**16)),
        st.tuples(st.just("range"), KEYS, KEYS),
        st.tuples(st.just("prefix"), PREFIXES),
        st.tuples(st.just("estimate"), PREFIXES),
        st.tuples(st.just("scan"), st.booleans(), PREFIXES, st.integers(0, 80)),
        st.tuples(st.just("pull"), st.integers(0, 80)),
    ),
    max_size=40,
)


def _estimate(oracle, prefix):
    """``prefix_key_estimate``'s contract: the live keys of the prefix's
    first-segment bucket when it names one, every live key otherwise."""
    segment, separator, _rest = prefix.partition("/")
    if not separator:
        return len(oracle.keys())
    return sum(key.split("/", 1)[0] == segment for key in oracle.keys())


class OpenScan:
    """A lazy scan pulled partway, and what it may and must hand out."""

    def __init__(self, state, oracle, as_range, prefix):
        if as_range:
            self.low, self.high = prefix, prefix + "~"
            self.rows = state.iter_by_range_versioned(self.low, self.high)
        else:
            self.low, self.high = prefix, None
            self.rows = state.iter_by_prefix_versioned(prefix, ())
        self.must = {key for key in oracle.keys() if self.covers(key)}
        self.may = set(self.must)
        self.seen = []

    def covers(self, key):
        if self.high is None:
            return key.startswith(self.low)
        return self.low <= key < self.high

    def pull(self, count):
        for _ in range(count):
            row = next(self.rows, None)
            if row is None:
                return
            self.seen.append(row.key)

    def wrote(self, key, live):
        if self.covers(key):
            if live:
                self.may.add(key)
            else:
                self.must.discard(key)

    def check(self):
        self.pull(10**6)
        assert self.seen == sorted(set(self.seen)), "out of order or repeated"
        assert self.must <= set(self.seen) <= self.may


@budget
@given(operations)
def test_ordered_reads_between_writes_answer_what_the_oracle_answers(program):
    state, oracle, scans = WorldState(), NaiveWorldState(), []

    def write(key, step, live):
        if live:
            state.put(key, f"v{step}", (step, 0))
            oracle.put(key, f"v{step}", (step, 0))
        else:
            state.delete(key, (step, 0))
            oracle.delete(key, (step, 0))
        for scan in scans:
            scan.wrote(key, live)

    for step, (kind, *args) in enumerate(program):
        if kind in ("put", "delete"):
            write(args[0], step, kind == "put")
        elif kind in ("put burst", "delete burst"):
            count, seed = args
            for key in random.Random(seed).sample(UNIVERSE, count):
                write(key, step, kind == "put burst")
        elif kind == "range":
            low, high = args
            assert range_pairs(state, low, high) == oracle.range_query(low, high)
        elif kind == "prefix":
            assert prefix_pairs(state, args[0]) == oracle.query_by_prefix(args[0])
        elif kind == "estimate":
            assert state.prefix_key_estimate(args[0]) == _estimate(oracle, args[0])
        elif kind == "scan":
            as_range, prefix, count = args
            scans.append(OpenScan(state, oracle, as_range, prefix))
            scans[-1].pull(count)
        elif scans:
            scans[-1].pull(args[0])
    for scan in scans:
        scan.check()
    assert range_pairs(state, "", "") == oracle.range_query("", "")
