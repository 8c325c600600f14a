"""In-memory span recorder for the traced benchmark pass.

A span is ``(probe, start, end, parent index)``.  Spans live in four
columnar ``array`` objects (22 bytes per span) and are only aggregated
after the pass ends, so recording costs two clock reads and a few
appends per wrapped call.  Wrappers record only while
:meth:`Tracer.recording` is open.

*Self time* of a span is its duration minus the time covered by its
direct children; a probe's self time is the sum over its spans.  Because
the arithmetic is per span, re-entrant probes (a probe nested inside
itself — ``TransactionPipeline.execute`` runs twice per write, the retry
middleware may call ``call_next`` several times) need no special case.

*Requests*: every top-level ``api.*`` span opens a new request id; a
top-level span of any other probe (an engine step the driver ran while
waiting) joins the request of the ``api.*`` span before it, or forms a
request of its own when there was none yet.  Child spans inherit.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

#: Every N-th request is written by :meth:`Tracer.write_chrome_trace`.
TRACE_OUT_EVERY = 64


class Tracer:
    """Records spans of wrapped callables; aggregates them per probe."""

    def __init__(
        self,
        probe_names: Sequence[str],
        clock_ns: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.names: List[str] = list(probe_names)
        self._ids: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        self._clock = clock_ns
        self.probe = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        #: Calls per probe.  Kept apart from the span count because a lazy
        #: scan records one span per row it yields but is *one* call.
        self.calls: List[int] = [0] * len(self.names)
        #: Free-form event counts recorded at the probes (rows, txs, …).
        self.counters: Dict[str, int] = {}
        self._stack: List[int] = [-1]
        #: Wrappers pass straight through while this is off, so probes can
        #: be installed before set-up yet record only the timed region.
        self.active = False

    @contextmanager
    def recording(self) -> Iterator[None]:
        self.active = True
        try:
            yield
        finally:
            self.active = False

    # ----------------------------------------------------------- recording
    def probe_id(self, name: str) -> int:
        return self._ids[name]

    def count(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def begin(self, probe_id: int) -> int:
        index = len(self.start)
        self.probe.append(probe_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(index)
        self.start.append(self._clock())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = self._clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around every call.

        ``observe(tracer, args, result)`` runs after the span closed
        (outside the measured interval) — the hook for probe-side counters.
        """
        probe_id = self._ids[name]
        calls = self.calls
        begin, finish = self.begin, self.finish

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            calls[probe_id] += 1
            index = begin(probe_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(index)
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_iterator(self, name: str, fn: Callable, row_counter: str) -> Callable:
        """A generator function with one span per ``next()``.

        The consumer's code between two rows runs outside the spans, so it
        stays attributed to the consumer.  Counts one call per iterator
        created and one ``row_counter`` tick per row yielded.
        """
        probe_id = self._ids[name]

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = fn(*args, **kwargs)
            if not self.active:
                yield from iterator
                return
            self.calls[probe_id] += 1
            while True:
                index = self.begin(probe_id)
                try:
                    row = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.finish(index)
                self.count(row_counter)
                yield row

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # --------------------------------------------------------- aggregation
    def __len__(self) -> int:
        return len(self.start)

    def durations_ns(self) -> array:
        return array("q", (e - s for s, e in zip(self.start, self.end)))

    def self_ns_by_span(self) -> array:
        """Duration minus the time covered by direct children, per span."""
        self_ns = self.durations_ns()
        durations = array("q", self_ns)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                self_ns[parent] -= durations[index]
        return self_ns

    def self_ns_by_probe(self) -> List[int]:
        totals = [0] * len(self.names)
        for probe_id, self_ns in zip(self.probe, self.self_ns_by_span()):
            totals[probe_id] += self_ns
        return totals

    def root_ns(self) -> int:
        """Total duration of top-level spans (time covered by any span)."""
        return sum(
            e - s for s, e, parent in zip(self.start, self.end, self.parent) if parent < 0
        )

    def durations_of(self, name: str) -> List[int]:
        probe_id = self._ids[name]
        return [
            e - s
            for s, e, p in zip(self.start, self.end, self.probe)
            if p == probe_id
        ]

    def request_ids(self) -> array:
        """Request id of every span (see the module docstring)."""
        requests = array("i", bytes(4 * len(self.start)))
        is_api = [name.startswith("api.") for name in self.names]
        current = -1
        seen_api = False
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                requests[index] = requests[parent]
                continue
            if is_api[self.probe[index]]:
                seen_api = True
            if is_api[self.probe[index]] or not seen_api:
                current += 1
            requests[index] = current
        return requests

    # ------------------------------------------------------------- export
    def write_chrome_trace(self, path: str, every: int = TRACE_OUT_EVERY) -> int:
        """Write every ``every``-th request as Chrome trace-event JSON.

        Open the file in ``chrome://tracing`` or Perfetto: one complete
        event (``ph: "X"``) per span, nested by time, so one ``submit``'s
        path through every layer reads top to bottom.  Returns the number
        of events written.
        """
        requests = self.request_ids()
        origin = self.start[0] if len(self.start) else 0
        events = [
            {
                "name": self.names[self.probe[index]],
                "cat": self.names[self.probe[index]].split(".", 1)[0],
                "ph": "X",
                "ts": (self.start[index] - origin) / 1000.0,
                "dur": (self.end[index] - self.start[index]) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"request": request},
            }
            for index, request in enumerate(requests)
            if request % every == 0
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, handle)
        return len(events)
