"""Tests for the event bus and the metrics registry."""

import pytest

from repro.common.events import EventBus
from repro.common.metrics import Histogram, MetricsRegistry, percentile
from tests.internals import live_topics


# ------------------------------------------------------------------ event bus
def test_publish_reaches_subscriber():
    bus = EventBus()
    received = []
    bus.subscribe("topic", lambda topic, payload: received.append((topic, payload)))
    delivered = bus.publish("topic", {"x": 1})
    assert delivered == 1
    assert received == [("topic", {"x": 1})]


def test_publish_without_subscribers_is_fine():
    bus = EventBus()
    assert bus.publish("nobody-listening", 42) == 0


def test_multiple_subscribers_all_receive():
    bus = EventBus()
    hits = []
    bus.subscribe("t", lambda *_: hits.append("a"))
    bus.subscribe("t", lambda *_: hits.append("b"))
    bus.publish("t")
    assert hits == ["a", "b"]


def test_unsubscribe_stops_delivery():
    bus = EventBus()
    hits = []
    subscription = bus.subscribe("t", lambda *_: hits.append(1))
    subscription.cancel()
    bus.publish("t")
    assert hits == []


def test_subscriber_exception_propagates_after_all_handlers_run():
    bus = EventBus()
    hits = []

    def failing(topic, payload):
        raise RuntimeError("boom")

    bus.subscribe("t", failing)
    bus.subscribe("t", lambda *_: hits.append(1))
    with pytest.raises(RuntimeError):
        bus.publish("t")
    assert hits == [1]


def test_cancelled_topic_is_dropped():
    bus = EventBus()
    bus.subscribe("a", lambda *_: None)
    sub = bus.subscribe("b", lambda *_: None)
    sub.cancel()
    assert live_topics(bus) == ["a"]


def test_per_tx_topics_stay_bounded_across_many_transactions():
    """Regression: one-shot subscriptions on per-transaction topic names must
    not leave an empty handler list behind for every transaction ever seen."""
    bus = EventBus()
    for tx_number in range(1000):
        topic = f"committed:tx-{tx_number}"
        received = []
        subscription = bus.subscribe(topic, lambda _t, p: received.append(p))
        bus.publish(topic, {"tx": tx_number})
        subscription.cancel()
        assert received == [{"tx": tx_number}]
    assert live_topics(bus) == []


def test_handler_cancelling_itself_during_publish_drops_topic():
    bus = EventBus()
    subscription = bus.subscribe("once", lambda *_: subscription.cancel())
    assert bus.publish("once") == 1
    assert live_topics(bus) == []
    # Publishing to the now-empty topic is a no-op, not an error.
    assert bus.publish("once") == 0


def test_unsubscribe_keeps_topic_with_remaining_subscribers():
    bus = EventBus()
    keep = []
    bus.subscribe("t", lambda *_: keep.append(1))
    other = bus.subscribe("t", lambda *_: None)
    other.cancel()
    assert live_topics(bus) == ["t"]
    bus.publish("t")
    assert keep == [1]


def test_cancel_inside_own_handler_does_not_skip_later_handlers():
    """Regression: a handler cancelling its own subscription mid-publish
    (the one-shot continuous-query cursor pattern) must not shift the
    handler list under the iteration — every later handler still runs."""
    bus = EventBus()
    hits = []

    def one_shot(_topic, _payload):
        hits.append("one-shot")
        first.cancel()

    first = bus.subscribe("t", one_shot)
    bus.subscribe("t", lambda *_: hits.append("second"))
    bus.subscribe("t", lambda *_: hits.append("third"))
    assert bus.publish("t") == 3
    assert hits == ["one-shot", "second", "third"]
    # The cancelled handler is genuinely gone on the next publish.
    assert bus.publish("t") == 2
    assert hits == ["one-shot", "second", "third", "second", "third"]


def test_cancel_other_subscription_mid_publish_suppresses_it():
    bus = EventBus()
    hits = []
    bus.subscribe("t", lambda *_: later.cancel())
    later = bus.subscribe("t", lambda *_: hits.append("later"))
    bus.publish("t")
    assert hits == []
    bus.publish("t")
    assert hits == []


def test_subscribe_during_publish_does_not_see_inflight_event():
    bus = EventBus()
    hits = []

    def subscribe_more(_topic, _payload):
        bus.subscribe("t", lambda *_: hits.append("new"))

    bus.subscribe("t", subscribe_more)
    assert bus.publish("t") == 1
    assert hits == []
    assert bus.publish("t") == 2
    assert hits == ["new"]


def test_cancel_is_idempotent_mid_and_post_publish():
    bus = EventBus()

    def cancel_twice(_topic, _payload):
        subscription.cancel()
        subscription.cancel()

    subscription = bus.subscribe("t", cancel_twice)
    bus.publish("t")
    subscription.cancel()
    assert live_topics(bus) == []


def test_subscription_is_a_context_manager():
    bus = EventBus()
    hits = []
    with bus.subscribe("t", lambda *_: hits.append(1)) as subscription:
        assert subscription.active
        bus.publish("t")
    assert hits == [1]
    assert not subscription.active
    bus.publish("t")
    assert hits == [1]
    assert live_topics(bus) == []


# -------------------------------------------------------------------- metrics
def test_counter_increments_and_rejects_negative():
    registry = MetricsRegistry("test")
    counter = registry.counter("ops")
    counter.inc()
    counter.inc(2)
    assert counter.value == 3
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_set():
    gauge = MetricsRegistry().gauge("queue")
    gauge.set(5)
    gauge.set(3)
    assert gauge.value == 3


def test_histogram_summary_statistics():
    histogram = Histogram("lat")
    for value in [1.0, 2.0, 3.0, 4.0]:
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.mean == pytest.approx(2.5)
    assert histogram.maximum == 4.0
    assert percentile(histogram.samples, 50) == pytest.approx(2.5)
    assert percentile(histogram.samples, 100) == 4.0


def test_histogram_empty_is_safe():
    histogram = Histogram("empty")
    assert histogram.mean == 0.0
    assert histogram.maximum == 0.0
    assert percentile(histogram.samples, 95) == 0.0


def test_histogram_percentile_validates_range():
    histogram = Histogram("h")
    histogram.observe(1.0)
    with pytest.raises(ValueError):
        percentile(histogram.samples, 150)


def test_registry_namespaces_metric_names():
    registry = MetricsRegistry("peer.p0")
    registry.counter("txs").inc()
    assert registry.get_counter("txs").name == "peer.p0.txs"


def test_registry_same_name_returns_same_object():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.histogram("h") is registry.histogram("h")

