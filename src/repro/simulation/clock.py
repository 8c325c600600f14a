"""Virtual clock used by the discrete-event engine."""

from __future__ import annotations

from repro.common.errors import SimulationError


class VirtualClock:
    """Monotonically advancing virtual time, in seconds.

    The clock only moves forward; attempting to rewind raises
    :class:`~repro.common.errors.SimulationError` because that always
    indicates an event-scheduling bug.
    """

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Jump the clock to ``timestamp`` (must not be in the past)."""
        if timestamp < self._now - 1e-12:
            raise SimulationError(
                f"cannot rewind clock from {self._now:.6f}s to {timestamp:.6f}s"
            )
        self._now = max(self._now, float(timestamp))
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"VirtualClock(now={self._now:.6f})"
