"""Event queue and scheduler for the discrete-event simulation.

The engine is intentionally small: events are callbacks scheduled at an
absolute virtual time; ties are broken by insertion order so identical
runs replay identically.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.simulation.clock import VirtualClock

EventCallback = Callable[[], None]


class RunOutcome(int):
    """Event count returned by :meth:`SimulationEngine.run`, plus *why* it
    stopped.

    Behaves exactly like the historical ``int`` return value (equality,
    arithmetic, formatting), with a :attr:`stop_reason` so harnesses can
    tell a drained queue from a truncated run — fleet-scale benches use
    this to fail loudly instead of silently under-counting commits.

    Stop reasons:

    ``"idle"``
        The queue emptied, or only daemon events remained.
    ``"cap"``
        ``max_events`` was reached with live events still queued.
    ``"horizon"``
        The ``until`` horizon was reached with later events still queued.
    ``"deadlock"``
        The queue emptied while the caller still had in-flight work that
        can never complete without further events — produced by drain
        helpers layered on the engine (``FabricNetwork.flush_and_drain``)
        when e.g. a partition never heals, so chaos scenarios fail loudly
        instead of hanging tests.
    """

    #: Why the run loop returned; one of ``"idle"``, ``"cap"``,
    #: ``"horizon"``, or ``"deadlock"``.
    stop_reason: str

    def __new__(cls, executed: int, stop_reason: str) -> "RunOutcome":
        outcome = super().__new__(cls, executed)
        outcome.stop_reason = stop_reason
        return outcome

    @property
    def truncated(self) -> bool:
        """Whether the run stopped on the event cap rather than naturally."""
        return self.stop_reason == "cap"

    def __repr__(self) -> str:
        return f"RunOutcome({int(self)}, stop_reason={self.stop_reason!r})"


@dataclass
class Event:
    """A callback scheduled at an absolute virtual timestamp.

    ``daemon`` events (periodic heartbeats, election timers) keep firing as
    long as the simulation runs but do not, by themselves, keep it alive:
    :meth:`SimulationEngine.run_until_idle` stops once only daemon events
    remain, the same way daemon threads do not prevent process exit.
    """

    timestamp: float
    sequence: int
    callback: EventCallback = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    daemon: bool = field(default=False, compare=False)
    #: Owning engine, set by ``schedule_at`` so cancellation can feed the
    #: engine's heap-compaction accounting.  ``None`` for detached events.
    engine: Optional["SimulationEngine"] = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        """Prevent this event from firing (it stays in the queue but is skipped)."""
        if not self.cancelled:
            self.cancelled = True
            if self.engine is not None:
                self.engine._note_cancelled(self)


class SimulationEngine:
    """Priority-queue based discrete-event scheduler."""

    #: Compact the heap only once it holds at least this many events (below
    #: that, popping cancelled entries lazily is cheaper than rebuilding).
    COMPACT_MIN_QUEUE = 64

    def __init__(self) -> None:
        self.clock = VirtualClock()
        #: ``(timestamp, sequence, event)`` entries, ordered by tuple
        #: comparison in C: time first, ties in scheduling order
        #: (sequences are unique, so an event itself is never compared).
        self._queue: List[Tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._processed = 0
        self._running = False
        # Count of queued non-daemon events (including cancelled ones that
        # have not been popped yet); kept incrementally so the run loop's
        # idle check is O(1).
        self._non_daemon_queued = 0
        # Cancelled events still sitting in the heap; once they exceed half
        # the queue the heap is compacted (mass-cancellation workloads —
        # retry timers, election timeouts — would otherwise carry the dead
        # entries until their timestamps are reached).
        self._cancelled_queued = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule_at(
        self, timestamp: float, callback: EventCallback, label: str = "", daemon: bool = False
    ) -> Event:
        """Schedule ``callback`` at absolute virtual time ``timestamp``."""
        if timestamp < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule an event in the past ({timestamp:.6f} < {self.now:.6f})"
            )
        event = Event(
            timestamp=max(timestamp, self.now),
            sequence=next(self._sequence),
            callback=callback,
            label=label,
            daemon=daemon,
            engine=self,
        )
        heapq.heappush(self._queue, (event.timestamp, event.sequence, event))
        if not daemon:
            self._non_daemon_queued += 1
        return event

    # ------------------------------------------------------------ compaction
    def _note_cancelled(self, event: Event) -> None:
        """Called by :meth:`Event.cancel`; compacts when the heap is mostly dead."""
        self._cancelled_queued += 1
        if (
            len(self._queue) >= self.COMPACT_MIN_QUEUE
            and self._cancelled_queued * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from the heap and re-heapify."""
        live: List[Tuple[float, int, Event]] = []
        removed_non_daemon = 0
        for entry in self._queue:
            queued = entry[2]
            if queued.cancelled:
                queued.engine = None
                if not queued.daemon:
                    removed_non_daemon += 1
            else:
                live.append(entry)
        heapq.heapify(live)
        self._queue = live
        self._non_daemon_queued -= removed_non_daemon
        self._cancelled_queued = 0

    def schedule_in(
        self, delay: float, callback: EventCallback, label: str = "", daemon: bool = False
    ) -> Event:
        """Schedule ``callback`` ``delay`` seconds from the current time."""
        if delay < 0:
            raise SimulationError("cannot schedule an event with a negative delay")
        return self.schedule_at(self.now + delay, callback, label=label, daemon=daemon)

    def _pending_non_daemon(self) -> int:
        """Number of queued events that keep the simulation alive.

        Cancelled events still sitting in the heap are counted until they are
        popped, which only delays the idle detection by a few no-op steps.
        """
        return self._non_daemon_queued

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            # Detach so a late cancel() of an already-popped event cannot
            # skew the cancelled-in-heap accounting.
            event.engine = None
            if not event.daemon:
                self._non_daemon_queued -= 1
            if event.cancelled:
                self._cancelled_queued -= 1
                continue
            self.clock.advance_to(event.timestamp)
            event.callback()
            self._processed += 1
            return True
        return False

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> RunOutcome:
        """Run events until the queue empties, ``until`` is reached, or
        ``max_events`` have been executed.

        Returns a :class:`RunOutcome` — the number of events run (an ``int``
        for all existing callers) tagged with why the loop stopped.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        executed = 0
        stop_reason = "idle"
        try:
            while self._queue:
                if max_events is not None and executed >= max_events:
                    stop_reason = "cap"
                    break
                head = self._queue[0][2]
                if head.cancelled:
                    heapq.heappop(self._queue)
                    head.engine = None
                    if not head.daemon:
                        self._non_daemon_queued -= 1
                    self._cancelled_queued -= 1
                    continue
                if until is not None and head.timestamp > until:
                    stop_reason = "horizon"
                    break
                if until is None and self._pending_non_daemon() == 0:
                    # Only daemon events (heartbeats, timers) remain; without a
                    # horizon they would keep the simulation alive forever.
                    break
                if not self.step():
                    break
                executed += 1
            if until is not None and self.now < until:
                # Nothing more to do before the horizon: advance to it so that
                # idle-time accounting (energy) covers the full interval.
                self.clock.advance_to(until)
        finally:
            self._running = False
        return RunOutcome(executed, stop_reason)

    def run_until_idle(self, max_events: int = 1_000_000) -> RunOutcome:
        """Drain the event queue; guards against runaway self-rescheduling."""
        outcome = self.run(max_events=max_events)
        if self._queue and outcome.truncated:
            raise SimulationError(
                f"simulation did not converge within {max_events} events"
            )
        return outcome
