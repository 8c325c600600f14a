"""The read cache's LRU store: eviction order, thread safety, invalidation."""

import random
import threading
from collections import OrderedDict

import pytest

from repro.middleware.cache import CacheEntry, SharedReadCache


# ----------------------------------------------------------------- the store
def entry(value):
    return CacheEntry(result=value, keys=frozenset({value}), broad=False)


def test_shared_store_lru_eviction():
    store = SharedReadCache(capacity=2)
    store.put(("c", "get", ("a",)), entry("a"))
    store.put(("c", "get", ("b",)), entry("b"))
    store.get(("c", "get", ("a",)))  # refresh "a"
    evicted = store.put(("c", "get", ("c",)), entry("c"))
    assert evicted == 1
    assert {key[2][0] for key in store.keys()} == {"a", "c"}


def test_shared_store_survives_concurrent_use():
    store = SharedReadCache(capacity=64)
    errors = []

    def worker(name):
        try:
            for i in range(500):
                key = ("c", "get", (f"{name}/{i % 80}",))
                store.put(key, entry(f"{name}/{i}"))
                store.get(key)
                if i % 7 == 0:
                    store.invalidate_key(f"{name}/{i % 80}")
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(f"t{n}",)) for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(store) <= 64


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
    store, reference = SharedReadCache(capacity), BruteForceStore(capacity)
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
        assert store.keys() == list(reference.entries)  # same entries, same LRU order
        # The maps hold exactly what the surviving entries depend on.
        assert store._broad == {key for key, held in reference.entries.items() if held.broad}
        dependents = {}
        for key, held in reference.entries.items():
            for state_key in held.keys:
                dependents.setdefault(state_key, set()).add(key)
        assert store._dependents == dependents
