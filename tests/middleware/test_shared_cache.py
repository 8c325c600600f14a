"""The read cache's LRU store: eviction order, validation, invalidation."""

import random
from collections import OrderedDict

import pytest

from repro.common.errors import ConfigurationError
from repro.middleware.cache import CacheEntry, ReadCacheStore
from tests.internals import cache_keys


# ----------------------------------------------------------------- the store
def entry(value):
    return CacheEntry(result=value, keys=frozenset({value}), broad=False)


def test_shared_store_lru_eviction():
    store = ReadCacheStore(capacity=2)
    store.put(("c", "get", ("a",)), entry("a"))
    store.put(("c", "get", ("b",)), entry("b"))
    store.get(("c", "get", ("a",)))  # refresh "a"
    evicted = store.put(("c", "get", ("c",)), entry("c"))
    assert evicted == 1
    assert {key[2][0] for key in cache_keys(store)} == {"a", "c"}


def test_store_capacity_below_one_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        ReadCacheStore(capacity=0)


# ------------------------------------------------- invalidation's reverse map
class BruteForceStore:
    """The reference: an LRU whose invalidation scans every entry."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()

    def get(self, key):
        if key in self.entries:
            self.entries.move_to_end(key)
        return self.entries.get(key)

    def put(self, key, entry):
        self.entries[key] = entry
        self.entries.move_to_end(key)
        evicted = 0
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            evicted += 1
        return evicted

    def invalidate_key(self, state_key):
        stale = [
            key for key, entry in self.entries.items()
            if entry.broad or state_key in entry.keys
        ]
        for key in stale:
            del self.entries[key]
        return len(stale)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_invalidation_by_reverse_map_matches_the_brute_force_scan(seed):
    rng = random.Random(seed)
    capacity = rng.choice([1, 3, 8, 40])
    store, reference = ReadCacheStore(capacity), BruteForceStore(capacity)
    state_keys = [f"k/{n}" for n in range(12)]
    for step in range(3000):
        roll = rng.random()
        cache_key = ("c", rng.choice(["get", "query", "checkhash"]), (rng.choice(state_keys),))
        if roll < 0.45:
            # Key-scoped, broad, both at once, and entries that depend on nothing;
            # the same cache key comes back with different dependencies.
            made = CacheEntry(
                result=step,
                keys=frozenset(rng.sample(state_keys, rng.choice([0, 1, 1, 1, 3]))),
                broad=rng.random() < 0.1,
            )
            assert store.put(cache_key, made) == reference.put(cache_key, made)
        elif roll < 0.7:
            assert store.get(cache_key) is reference.get(cache_key)
        elif roll < 0.99:
            state_key = rng.choice(state_keys + ["k/never"])
            assert store.invalidate_key(state_key) == reference.invalidate_key(state_key)
        else:
            store.clear()
            reference.entries.clear()
        assert cache_keys(store) == list(reference.entries)  # same entries, same LRU order
        # The maps hold exactly what the surviving entries depend on.
        assert store._broad == {key for key, held in reference.entries.items() if held.broad}
        dependents = {}
        for key, held in reference.entries.items():
            for state_key in held.keys:
                dependents.setdefault(state_key, set()).add(key)
        assert store._dependents == dependents
