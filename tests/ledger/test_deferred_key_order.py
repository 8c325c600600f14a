"""A world state sorts its keys only when someone reads keys in order.

``WorldState.put_entry`` queues a new key in ``_unsorted``; the main
index and the prefix buckets take it at the next ordered read (a range
or prefix scan, a lazy scan, ``prefix_key_estimate``) or delete.  These
tests pin what that must not change: every ordered read sees every key,
in order, whatever was put, deleted or put again while it was queued, and
a merge leaves exactly the lists a per-key ``insort`` leaves.
"""

import random
from bisect import insort

import pytest

from repro.ledger.world_state import WorldState, _SortedKeyIndex


def shuffled_keys(count, seed=5):
    keys = [f"{segment}/{index:04d}" for index in range(count) for segment in ("k", "m")]
    random.Random(seed).shuffle(keys)
    return keys


def filled(keys):
    state = WorldState()
    for step, key in enumerate(keys):
        state.put(key, f"v{step}", (0, step))
    return state


def scanned_keys(rows):
    return [row.key for row in rows]


def test_commits_with_no_ordered_read_leave_the_sorted_indexes_empty():
    keys = shuffled_keys(100)
    state = filled(keys + keys[:10])  # ten overwrites queue nothing twice
    state.delete("no/such", (1, 0))  # deleting an absent key merges nothing
    assert len(state) == len(keys)
    assert state.get(keys[0]).value == f"v{len(keys)}"
    assert state._index.keys == []
    assert all(not bucket.keys for bucket in state._buckets.values())
    assert sorted(state._unsorted) == sorted(keys)


READS = {
    "range": lambda state: scanned_keys(state.range_query_versioned("", "")),
    "prefix": lambda state: scanned_keys(state.query_by_prefix_versioned("k/", ())),
    "lazy range": lambda state: scanned_keys(state.iter_by_range_versioned("k/", "k0")),
    "lazy prefix": lambda state: scanned_keys(state.iter_by_prefix_versioned("m/", ())),
    "estimate": lambda state: state.prefix_key_estimate("k/"),
}


@pytest.mark.parametrize("read", sorted(READS))
def test_the_first_ordered_read_sees_every_key_in_order(read):
    keys = shuffled_keys(100)
    state = filled(keys)
    k_keys = sorted(key for key in keys if key.startswith("k/"))
    expected = {
        "range": sorted(keys),
        "prefix": k_keys,
        "lazy range": k_keys,
        "lazy prefix": sorted(key for key in keys if key.startswith("m/")),
        "estimate": len(k_keys),
    }
    assert READS[read](state) == expected[read]
    # Whichever read came first, the indexes now hold every key in order.
    assert state._unsorted == []
    assert state._index.keys == sorted(keys)
    assert state._buckets["k"].keys == k_keys


def test_a_lazy_scan_first_pulled_after_puts_hands_them_out():
    state = filled(shuffled_keys(10))
    rows = state.iter_by_prefix_versioned("k/", ())
    state.put("k/0003a", "late", (1, 0))
    assert scanned_keys(rows) == sorted(
        [key for key in shuffled_keys(10) if key.startswith("k/")] + ["k/0003a"]
    )


def test_a_key_deleted_while_it_is_pending_is_gone_from_every_read():
    keys = shuffled_keys(100)
    state = filled(keys)
    doomed = keys[:50]
    for step, key in enumerate(doomed):
        state.delete(key, (1, step))
    live = sorted(set(keys) - set(doomed))
    assert scanned_keys(state.range_query_versioned("", "")) == live
    assert scanned_keys(state.iter_by_prefix_versioned("k/", ())) == [
        key for key in live if key.startswith("k/")
    ]
    assert state.prefix_key_estimate("k/") == sum(key.startswith("k/") for key in live)
    assert state.prefix_key_estimate("m/") == sum(key.startswith("m/") for key in live)
    assert len(state._index) == len(live)
    # Put back while others are pending again: each comes back once.
    for step, key in enumerate(doomed):
        state.put(key, "again", (2, step))
    assert scanned_keys(state.range_query_versioned("", "")) == sorted(keys)
    assert state.prefix_key_estimate("k/") == sum(key.startswith("k/") for key in keys)


def test_deleting_every_pending_key_leaves_an_estimate_of_nothing():
    # Twenty deletes cross the compaction floor: a tombstone must name a
    # key the index holds, or a compaction forgets it and a later merge
    # indexes the deleted key as live.
    state = filled([f"k/{index:02d}" for index in range(20)])
    for index in range(20):
        state.delete(f"k/{index:02d}", (1, index))
    assert state.prefix_key_estimate("k/") == 0
    assert len(state._index) == 0
    assert scanned_keys(state.range_query_versioned("", "")) == []


def test_a_tombstoned_key_put_again_while_pending_comes_back_once():
    state = filled(["k/0500", "k/0501"])
    assert state.prefix_key_estimate("k/") == 2  # merged: both indexed
    state.delete("k/0500", (1, 0))
    state.put("k/0500", "back", (2, 0))
    state.delete("k/0500", (3, 0))
    state.put("k/0500", "back again", (4, 0))
    for index in range(40):
        state.put(f"k/{index:04d}", "v", (5, index))
    expected = sorted([f"k/{index:04d}" for index in range(40)] + ["k/0500", "k/0501"])
    assert scanned_keys(state.query_by_prefix_versioned("k/", ())) == expected
    assert state.get("k/0500").value == "back again"
    for index in (state._index, state._buckets["k"]):
        assert index.keys == expected
        assert index._dead == set()
        assert len(index) == len(expected)


def _insort_reference(keys, dead, added):
    """What adding ``added`` one key at a time by ``insort`` leaves."""
    keys, dead = list(keys), set(dead)
    for key in added:
        if key in dead:
            dead.discard(key)
        else:
            insort(keys, key)
    return keys, dead


@pytest.mark.parametrize("held", [0, 7, 400])
def test_a_merge_leaves_the_lists_per_key_insort_leaves(held):
    rng = random.Random(held)
    universe = [f"{rng.choice('abc')}/{index:05d}" for index in range(held + 100)]
    rng.shuffle(universe)
    index = _SortedKeyIndex()
    present = universe[:held]
    index.keys.extend(sorted(present))
    # A third of the held keys are tombstoned; a merge may revive them.
    tombstoned = present[::3]
    for key in tombstoned:
        index._dead.add(key)
    added = universe[held:] + tombstoned[:50]
    rng.shuffle(added)
    expected_keys, expected_dead = _insort_reference(index.keys, index._dead, added)
    keys_list = index.keys
    index.add_all(added)
    assert index.keys == expected_keys
    assert index._dead == expected_dead
    assert index.keys is keys_list  # grown in place, never rebound


def test_a_lazy_scan_hands_out_keys_a_merge_put_past_its_position():
    state = filled([f"k/{index:04d}" for index in range(0, 400, 2)])
    rows = state.iter_by_prefix_versioned("k/", ())
    seen = [next(rows).key for _ in range(10)]
    late = [f"k/{index:04d}" for index in range(201, 601, 2)]
    for step, key in enumerate(late):
        state.put(key, "late", (1, step))
    seen.extend(scanned_keys(rows))
    assert seen == sorted([f"k/{index:04d}" for index in range(0, 400, 2)] + late)
