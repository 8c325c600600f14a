"""Readers of private state that several test modules assert on.

Some tests pin bookkeeping that no public call exposes: a dropped event
topic, a compacted engine queue, an index that forgot a deleted key.
They read that state through these helpers, so a change to a class's
internal layout is mended here once rather than in every test module.
"""

from typing import Any, Dict, List, Set


def live_topics(bus) -> List[str]:
    """The topics an ``EventBus`` still holds handlers for."""
    return list(bus._handlers)


def organization(msp, name: str):
    """The ``Organization`` an ``MSP`` trusts under ``name``."""
    return msp._organizations[name]


def queued_events(engine) -> int:
    """Entries in a ``SimulationEngine``'s queue, cancelled ones included."""
    return len(engine._queue)


def cancelled_in_queue(engine) -> int:
    """Cancelled entries a ``SimulationEngine`` has not compacted away yet."""
    return engine._cancelled_queued


def indexed_keys(index) -> Set[str]:
    """The keys a ``FieldValueIndex`` holds postings for."""
    return set(index._key_terms)


def postings(index, field: str) -> Dict[Any, Set[str]]:
    """A ``FieldValueIndex``'s value → keys map for ``field``."""
    return index._postings.get(field, {})


def registered_queries(registry) -> int:
    """Continuous queries a ``ContinuousQueryRegistry`` still evaluates."""
    return len(registry._queries)


def queued_writes(middleware) -> int:
    """Writes a ``StoreAndForwardMiddleware`` holds for replay."""
    return len(middleware._queue)


def cache_keys(store) -> List[Any]:
    """The keys a ``ReadCacheStore`` holds, least recently used first."""
    return list(store._entries)


def device_schedules(plan) -> List[Any]:
    """A ``CohortArrivalPlan``'s per-device arrivals, in device order."""
    return plan._schedules
