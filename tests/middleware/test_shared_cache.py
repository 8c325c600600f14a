"""The read cache's LRU store: eviction order and thread safety."""

import threading

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
