"""Read-path result cache with commit-event invalidation.

One private LRU store per pipeline, plus the optional stale-read archive
that answers reads (marked ``stale``) while the peer is unreachable.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional, Set, Tuple

from repro.common.errors import ConfigurationError, NetworkError
from repro.common.events import EventBus
from repro.common.metrics import MetricsRegistry
from repro.middleware.base import Handler, Middleware
from repro.middleware.context import Context

#: The failure class the stale-read fallback may answer for (transport
#: only: an application error must always propagate).
UNREACHABLE_ERRORS = NetworkError

#: Topic carrying whole delivered blocks: every committed write (sets,
#: deletes, other clients' writes) is in the block's write sets.  A block
#: is announced again for each peer that commits it late (catch-up after a
#: partition or a crash); invalidating twice is harmless.
BLOCK_DELIVERED_TOPIC = "block_delivered"

#: Read functions whose first argument names the single key they depend on.
KEY_SCOPED_FUNCTIONS = frozenset({"get", "getkeyhistory", "checkhash", "getdependencies"})

CacheKey = Tuple[str, str, Tuple[str, ...]]


@dataclass
class CacheEntry:
    """A cached read result plus the keys whose commits stale it."""

    result: Any
    keys: FrozenSet[str]
    #: Broad entries (rich queries, range scans) depend on unknown keys and
    #: are dropped on *any* commit.
    broad: bool


class ReadCacheStore:
    """LRU store behind one :class:`ReadCacheMiddleware`.

    Entries are keyed on the *namespaced* read arguments (the
    tenant-prefix middleware runs above the cache).

    Every committed write asks which entries it stales, so the store
    keeps the answer: a state key → cache keys reverse map and the set
    of broad entries, maintained wherever an entry comes or goes.  An
    invalidation costs the entries it drops, not a pass over the store.

    No lock: every caller runs on the simulation's one thread, inside a
    pipeline's ``execute`` or a commit-stream handler.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ConfigurationError("cache capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        #: state key → cache keys of the entries that name it in ``keys``.
        self._dependents: Dict[str, Set[CacheKey]] = {}
        #: cache keys of the ``broad`` entries.
        self._broad: Set[CacheKey] = set()

    def get(self, key: CacheKey) -> Optional[CacheEntry]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: CacheKey, entry: CacheEntry) -> int:
        """Store an entry; returns how many LRU entries were evicted."""
        replaced = self._entries.get(key)
        if replaced is not None:
            self._unlink(key, replaced)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        if entry.broad:
            self._broad.add(key)
        for state_key in entry.keys:
            self._dependents.setdefault(state_key, set()).add(key)
        evicted = 0
        while len(self._entries) > self.capacity:
            self._unlink(*self._entries.popitem(last=False))
            evicted += 1
        return evicted

    def _unlink(self, key: CacheKey, entry: CacheEntry) -> None:
        """Forget what ``entry`` (stored under ``key``) depended on."""
        if entry.broad:
            self._broad.discard(key)
        for state_key in entry.keys:
            dependents = self._dependents[state_key]
            dependents.discard(key)
            if not dependents:
                del self._dependents[state_key]

    def invalidate_key(self, state_key: str) -> int:
        """Drop every entry that may depend on ``state_key``; returns count."""
        stale = self._broad.union(self._dependents.get(state_key, ()))
        for cache_key in stale:
            self._unlink(cache_key, self._entries.pop(cache_key))
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()
        self._dependents.clear()
        self._broad.clear()


class ReadCacheMiddleware(Middleware):
    """LRU cache for read-only operations, invalidated by commit events.

    A hit short-circuits the rest of the pipeline and returns the cached
    payload with a latency of 0.0 (a local lookup instead of a network
    round trip to a peer).  Correctness comes from
    invalidation, not expiry: the middleware subscribes to the network's
    aggregate :class:`EventBus` and scans every delivered block's write
    sets, so sets, deletes and writes from other clients on any shard all
    purge the entries they stale.

    Each middleware owns a private :class:`ReadCacheStore`, torn
    down with its subscriptions on ``close()``.

    With ``serve_stale=True`` the middleware additionally keeps a
    *stale archive*: the last successful result per read, LRU-bounded but
    **never** invalidated by commits.  When the authoritative peer is
    unreachable (partition, crashed peer) a read that would otherwise
    fail is answered from the archive with ``ctx.stale = True`` —
    graceful degradation with an explicit marker, never silently passed
    off as fresh.
    """

    name = "read-cache"

    def __init__(
        self,
        capacity: int = 256,
        events: Optional[EventBus] = None,
        metrics: Optional[MetricsRegistry] = None,
        serve_stale: bool = False,
    ) -> None:
        self.store = ReadCacheStore(capacity)
        self.capacity = capacity
        self.metrics = metrics
        self.serve_stale = serve_stale
        #: Last-known-good results for the stale fallback (commit events
        #: never touch this; only LRU pressure evicts).
        self._stale_archive: "OrderedDict[CacheKey, Any]" = OrderedDict()
        #: Subscriptions are context managers; the stack cancels every one
        #: on close even if an individual cancel raises.
        self._subscriptions = ExitStack()
        if events is not None:
            self.attach(events)

    # -------------------------------------------------------------- wiring
    def attach(self, events: EventBus) -> None:
        """Subscribe to a bus whose block deliveries invalidate entries."""
        self._subscriptions.enter_context(
            events.subscribe(BLOCK_DELIVERED_TOPIC, self._on_block_delivered)
        )

    def close(self) -> None:
        self._subscriptions.close()
        self.store.clear()
        self._stale_archive.clear()

    # ------------------------------------------------------------- pipeline
    def handle(self, ctx: Context, call_next: Handler) -> Any:
        if not ctx.is_read:
            return call_next(ctx)
        key = ctx.cache_key()
        entry = self.store.get(key)
        if entry is not None:
            ctx.cache_hit = True
            ctx.timings["cache_lookup_s"] = 0.0
            if self.metrics is not None:
                self.metrics.counter("cache.hits").inc()
            return self._hit_result(entry.result)
        if self.metrics is not None:
            self.metrics.counter("cache.misses").inc()
        if self.serve_stale:
            try:
                result = call_next(ctx)
            except UNREACHABLE_ERRORS:
                archived = self._stale_archive.get(key)
                if archived is None:
                    raise
                self._stale_archive.move_to_end(key)
                ctx.stale = True
                ctx.timings["cache_lookup_s"] = 0.0
                if self.metrics is not None:
                    self.metrics.counter("cache.stale_served").inc()
                return self._hit_result(archived)
        else:
            result = call_next(ctx)
        self._store(ctx, key, result)
        return result

    def _hit_result(self, result: Any) -> Any:
        """Rewrite the cached result's latency to the local lookup cost."""
        if isinstance(result, tuple) and len(result) == 2:
            return (result[0], 0.0)
        return result

    def _store(self, ctx: Context, key: CacheKey, result: Any) -> None:
        if ctx.function in KEY_SCOPED_FUNCTIONS and ctx.args:
            keys: FrozenSet[str] = frozenset({ctx.args[0]})
            broad = False
        else:
            keys = frozenset()
            broad = True
        evicted = self.store.put(key, CacheEntry(result=result, keys=keys, broad=broad))
        if evicted and self.metrics is not None:
            self.metrics.counter("cache.evictions").inc(evicted)
        if self.serve_stale:
            self._stale_archive[key] = result
            self._stale_archive.move_to_end(key)
            while len(self._stale_archive) > self.capacity:
                self._stale_archive.popitem(last=False)

    # --------------------------------------------------------- invalidation
    def invalidate_key(self, state_key: str) -> int:
        """Drop every entry that may depend on ``state_key``; returns count."""
        stale = self.store.invalidate_key(state_key)
        if stale and self.metrics is not None:
            self.metrics.counter("cache.invalidations").inc(stale)
        return stale

    def _on_block_delivered(self, _topic: str, payload: Dict[str, Any]) -> None:
        block = payload.get("block") if isinstance(payload, dict) else None
        if block is None:
            return
        for transaction in getattr(block, "transactions", []):
            rw_set = getattr(transaction, "rw_set", None)
            if rw_set is None:
                continue
            for write in rw_set.writes:
                self.invalidate_key(write.key)
