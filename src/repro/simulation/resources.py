"""Serially-reusable simulated resources (CPU cores, NICs, disks).

A :class:`SimResource` tracks when each of its slots next becomes free.
Callers *reserve* a duration starting no earlier
than a requested time; the resource returns the actual start/end times so
queueing delay is modelled without an explicit waiting queue.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.common.errors import SimulationError


class Reservation(NamedTuple):
    """Outcome of a resource reservation.

    A ``NamedTuple`` — reservations are created on every simulated CPU,
    disk and NIC charge, several times per transaction.
    """

    start: float
    end: float


class SimResource:
    """A FIFO resource with ``concurrency`` server slots."""

    def __init__(self, name: str, concurrency: int = 1) -> None:
        if concurrency < 1:
            raise SimulationError("resource concurrency must be >= 1")
        self.name = name
        self.concurrency = concurrency
        # Next-free time per logical server slot.
        self._free_at = [0.0] * concurrency

    def reserve(self, requested_at: float, duration: float) -> Reservation:
        """Reserve ``duration`` seconds starting no earlier than ``requested_at``.

        Returns the actual start and end time of the reservation.  The slot
        with the earliest availability is always chosen (FIFO fairness).
        """
        if duration < 0:
            raise SimulationError("cannot reserve a negative duration")
        free_at = self._free_at
        slot = free_at.index(min(free_at))
        start = max(requested_at, free_at[slot])
        end = start + duration
        self._free_at[slot] = end
        return Reservation(start=start, end=end)


def interval_overlap(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Length of the overlap between two ``(start, end)`` intervals.

    Conditionals, not ``max``/``min``: a power meter sums this over every
    busy span of a device once per sample window.
    """
    (a_start, a_end), (b_start, b_end) = a, b
    overlap = (a_end if a_end < b_end else b_end) - (a_start if a_start > b_start else b_start)
    return overlap if overlap > 0.0 else 0.0
