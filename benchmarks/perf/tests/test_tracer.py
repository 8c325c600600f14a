"""Tracer arithmetic: self time on nested and re-entrant spans, requests, export."""

import json

from tracer import Tracer


class ScriptedClock:
    """Returns the scripted instants in order (one per begin/finish)."""

    def __init__(self, *instants):
        self._instants = list(instants)

    def __call__(self):
        return self._instants.pop(0)


def test_self_time_subtracts_direct_children_only():
    # outer 0..100 { middle 10..60 { inner 20..30 } , middle 70..90 }
    tracer = Tracer(["outer", "middle", "inner"],
                    clock_ns=ScriptedClock(0, 10, 20, 30, 60, 70, 90, 100))
    inner = tracer.wrap("inner", lambda: None)
    calls = iter([inner, lambda: None])
    middle = tracer.wrap("middle", lambda: next(calls)())
    outer = tracer.wrap("outer", lambda: (middle(), middle()))
    with tracer.recording():
        outer()
    assert dict(zip(tracer.names, tracer.self_ns_by_probe())) == {
        "outer": 100 - 50 - 20,   # the grandchild is not subtracted twice
        "middle": (50 - 10) + 20,
        "inner": 10,
    }
    assert tracer.calls == [1, 2, 1]
    assert tracer.root_ns() == 100


def test_reentrant_probe_sums_its_own_nested_spans():
    # pipeline 0..100 { stage 10..90 { pipeline 20..50 } }: execute runs twice per write.
    tracer = Tracer(["pipeline", "stage"], clock_ns=ScriptedClock(0, 10, 20, 50, 90, 100))
    depth = []

    def execute():
        depth.append(len(depth))
        if len(depth) == 1:
            stage()

    pipeline = tracer.wrap("pipeline", execute)
    stage = tracer.wrap("stage", lambda: pipeline())
    with tracer.recording():
        pipeline()
    assert dict(zip(tracer.names, tracer.self_ns_by_probe())) == {
        "pipeline": (100 - 80) + 30,
        "stage": 80 - 30,
    }
    assert sum(tracer.self_ns_by_probe()) == tracer.root_ns()


def test_retry_calling_call_next_twice_counts_both_children():
    # retry 0..100 { next 10..30 (raises), next 50..90 }
    tracer = Tracer(["retry", "next"], clock_ns=ScriptedClock(0, 10, 30, 50, 90, 100))
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) == 1:
            raise ConnectionError("transient")
        return "ok"

    call_next = tracer.wrap("next", flaky)

    def handle():
        try:
            return call_next()
        except ConnectionError:
            return call_next()

    with tracer.recording():
        assert tracer.wrap("retry", handle)() == "ok"
    assert dict(zip(tracer.names, tracer.self_ns_by_probe())) == {"retry": 40, "next": 60}
    assert tracer.calls == [1, 2]


def test_wrappers_pass_through_while_not_recording():
    tracer = Tracer(["probe"])
    wrapped = tracer.wrap("probe", lambda value: value * 2)
    assert wrapped(21) == 42
    assert len(tracer) == 0 and tracer.calls == [0]


def test_lazy_scan_is_one_call_with_a_span_per_row():
    tracer = Tracer(["caller", "scan"])

    def rows(limit):
        yield from range(limit)

    scan = tracer.wrap_iterator("scan", rows, "rows")
    caller = tracer.wrap("caller", lambda: list(scan(3)))
    with tracer.recording():
        assert caller() == [0, 1, 2]
    assert tracer.calls == [1, 1]
    assert tracer.counters == {"rows": 3}
    # three rows plus the exhausted next(), all children of the caller
    assert list(tracer.probe).count(tracer.probe_id("scan")) == 4
    assert sum(tracer.self_ns_by_probe()) == tracer.root_ns()


def test_requests_follow_api_roots_and_export_every_nth(tmp_path):
    tracer = Tracer(["api.get", "simulation.engine.step", "fabric.query"])
    query = tracer.wrap("fabric.query", lambda: None)
    get = tracer.wrap("api.get", query)
    step = tracer.wrap("simulation.engine.step", lambda: None)
    with tracer.recording():
        step()          # before any api call: a request of its own
        get()           # request 1 (with its child)
        step()          # joins request 1
        get()           # request 2
    assert list(tracer.request_ids()) == [0, 1, 1, 1, 2, 2]

    path = tmp_path / "trace.json"
    assert tracer.write_chrome_trace(str(path), every=2) == 3  # requests 0 and 2
    events = json.loads(path.read_text())["traceEvents"]
    assert [event["name"] for event in events] == [
        "simulation.engine.step", "api.get", "fabric.query"]
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)
