"""A tiny synchronous publish/subscribe event bus.

Fabric exposes block and chaincode events to client applications through
the *event hub*; here :class:`~repro.fabric.network.FabricNetwork` owns the
one bus every commit is announced on (the tracing middleware and the fault
injector publish on it too), and the client library, the read cache and
the continuous-query registry observe it without polling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Set

EventHandler = Callable[[str, Any], None]


@dataclass
class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; use it to unsubscribe.

    Also a context manager: ``with bus.subscribe(topic, fn):`` guarantees
    the handler is removed on exit, so transient observers (read caches,
    continuous-query cursors, test probes) cannot leak into the bus.
    """

    topic: str
    handler: EventHandler
    bus: "EventBus" = field(repr=False)
    active: bool = True
    #: Monotonic join ticket assigned by the bus; a publish only delivers
    #: to subscriptions whose stamp predates the publish.
    stamp: int = 0

    def cancel(self) -> None:
        """Stop receiving events for this subscription (idempotent).

        Safe to call from inside the subscription's own handler: the bus
        defers the structural removal until the publish that is currently
        walking the handler list has finished.
        """
        if self.active:
            self.active = False
            self.bus.unsubscribe(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.cancel()


class EventBus:
    """Synchronous topic-based event dispatcher.

    Handlers run inline in the publisher's call stack which keeps the
    discrete-event simulation deterministic (no hidden queues).
    Exceptions raised by one handler are collected and re-raised after all
    handlers ran, so one misbehaving observer cannot silently swallow an
    event for the others.

    Cancelling a subscription *during* a publish — including a handler
    cancelling itself, the natural shape for one-shot cursors — is safe:
    removals are deferred while any publish is walking handler lists and
    swept once the outermost publish returns.  Handlers subscribed during
    a publish do not receive the in-flight event.
    """

    def __init__(self) -> None:
        # Plain dict, and topics are dropped as soon as their handler list
        # empties: one-shot subscriptions on ever-new topic names (one per
        # request id, say) would otherwise leave an empty list each, forever.
        self._handlers: Dict[str, List[Subscription]] = {}
        #: publish re-entrancy depth; structural removals are deferred
        #: while > 0 so in-flight handler walks keep stable indices.
        self._publishing: int = 0
        #: topics with cancelled subscriptions awaiting the deferred sweep.
        self._dirty_topics: Set[str] = set()
        #: next join ticket; publishes snapshot it so handlers subscribed
        #: mid-publish never see the in-flight event, on *any* topic.
        self._next_stamp: int = 0

    def subscribe(self, topic: str, handler: EventHandler) -> Subscription:
        """Register ``handler`` for ``topic`` and return a cancellable handle."""
        subscription = Subscription(
            topic=topic, handler=handler, bus=self, stamp=self._next_stamp
        )
        self._next_stamp += 1
        self._handlers.setdefault(topic, []).append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Remove a previously registered subscription (idempotent).

        Called from inside a handler (directly or via
        :meth:`Subscription.cancel`) the removal is deferred: the
        subscription is deactivated immediately — it receives no further
        events — but the handler list is only compacted after the
        outermost in-flight publish completes.
        """
        subscription.active = False
        if self._publishing:
            self._dirty_topics.add(subscription.topic)
            return
        self._compact_topic(subscription.topic)

    def _compact_topic(self, topic: str) -> None:
        handlers = self._handlers.get(topic)
        if handlers is None:
            return
        live = [entry for entry in handlers if entry.active]
        if live:
            self._handlers[topic] = live
        else:
            del self._handlers[topic]

    def _sweep_dirty(self) -> None:
        if not self._dirty_topics:
            return
        dirty, self._dirty_topics = self._dirty_topics, set()
        for topic in dirty:
            self._compact_topic(topic)

    def publish(self, topic: str, payload: Any = None) -> int:
        """Publish ``payload`` on ``topic``; returns number of handlers invoked."""
        handlers = self._handlers.get(topic)
        if not handlers:
            # Fast path: most publishes (pipeline trace events, chaincode
            # events) have no subscriber at all.
            return 0
        errors: List[Exception] = []
        delivered = 0
        # Walk the live list up to its length at publish time: removals
        # are deferred while we iterate (indices stay stable, no per-call
        # copy) and subscribers added mid-publish land past the snapshot
        # length so they only see subsequent events.  The join-stamp check
        # makes that exclusion structural rather than positional: a fault
        # handler subscribing mid-publish (possibly to a topic a *nested*
        # publish is about to fire) must never receive the in-flight event,
        # even when a deferred sweep has renumbered list positions.
        snapshot_length = len(handlers)
        stamp_limit = self._next_stamp
        self._publishing += 1
        try:
            for position in range(snapshot_length):
                subscription = handlers[position]
                if not subscription.active:
                    continue
                if subscription.stamp >= stamp_limit:
                    continue
                try:
                    subscription.handler(topic, payload)
                    delivered += 1
                except Exception as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)
        finally:
            self._publishing -= 1
            if not self._publishing:
                self._sweep_dirty()
        if errors:
            raise errors[0]
        return delivered

