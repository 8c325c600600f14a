"""Device model: converts work into virtual time and busy intervals.

Every simulated node (peer, orderer, client host, storage server) owns a
:class:`DeviceModel`.  Protocol components ask it how long an operation
takes (hashing a payload, signing, invoking chaincode, writing to disk);
the model applies the hardware profile, adds deterministic jitter, records
the busy interval for energy accounting, and returns the duration.
"""

from __future__ import annotations

from array import array
from typing import Optional, Tuple

from repro.common.errors import SimulationError
from repro.devices.profiles import HardwareProfile
from repro.simulation.randomness import DeterministicRandom
from repro.simulation.resources import SimResource, interval_overlap


class DeviceModel:
    """Stateful model of one machine.

    Durations are computed from the hardware profile with multiplicative
    jitter drawn from a per-device random stream; busy intervals are
    recorded per component (``cpu``, ``disk``, ``nic``) so the energy meter
    can compute utilization over arbitrary windows.
    """

    def __init__(
        self,
        name: str,
        profile: HardwareProfile,
        rng: Optional[DeterministicRandom] = None,
        hlf_running: bool = True,
    ) -> None:
        profile.validate()
        self.name = name
        self.profile = profile
        self._rng = rng or DeterministicRandom(17)
        #: Relative jitter of every duration; read once, since about 25
        #: durations are drawn per post.
        self._fraction = profile.variance_fraction
        #: Whether the HLF containers (peer/orderer/client) are running on
        #: this device — adds the HLF baseline power draw in the energy model.
        self.hlf_running = hlf_running
        self.cpu = SimResource(f"{name}.cpu", concurrency=profile.cores)
        self.disk = SimResource(f"{name}.disk", concurrency=1)
        self.nic = SimResource(f"{name}.nic", concurrency=1)
        self._components = {"cpu": self.cpu, "disk": self.disk, "nic": self.nic}
        #: Busy spans per component as flat ``start, end, start, end, …``
        #: doubles: every simulated charge appends one, the energy meter
        #: reads them in bulk afterwards.
        self._busy = {component: array("d") for component in self._components}

    # ------------------------------------------------------------- durations
    def hash_time(self, payload_bytes: int) -> float:
        """Time to SHA-256 a payload of ``payload_bytes``."""
        base = payload_bytes / self.profile.hash_rate_bytes_per_s
        return self._rng.gaussian_jitter(base, self._fraction)

    def sign_time(self) -> float:
        """Time to produce one signature."""
        return self._rng.gaussian_jitter(self.profile.sign_time_s, self._fraction)

    def verify_time(self, count: int = 1) -> float:
        """Time to verify ``count`` signatures."""
        return self._rng.gaussian_jitter(self.profile.verify_time_s * count, self._fraction)

    def chaincode_time(self, state_operations: int, payload_bytes: int = 0) -> float:
        """Time for one chaincode invocation with ``state_operations`` get/put calls."""
        base = (
            self.profile.chaincode_invoke_overhead_s
            + state_operations * self.profile.state_op_time_s
            + payload_bytes / self.profile.hash_rate_bytes_per_s * 0.1
        )
        return self._rng.gaussian_jitter(base, self._fraction)

    def disk_write_time(self, payload_bytes: int) -> float:
        """Time to persist ``payload_bytes`` to local storage."""
        base = payload_bytes / self.profile.disk_write_bytes_per_s
        return self._rng.gaussian_jitter(base, self._fraction)

    def disk_read_time(self, payload_bytes: int) -> float:
        """Time to read ``payload_bytes`` from local storage."""
        base = payload_bytes / self.profile.disk_read_bytes_per_s
        return self._rng.gaussian_jitter(base, self._fraction)

    def serialization_time(self, payload_bytes: int) -> float:
        """CPU time to marshal/unmarshal a payload (protobuf/JSON handling)."""
        base = payload_bytes / (self.profile.hash_rate_bytes_per_s * 4.0)
        return self._rng.gaussian_jitter(base, self._fraction)

    # --------------------------------------------------------------- accrual
    def occupy(self, component: str, start: float, duration: float) -> Tuple[float, float]:
        """Reserve a component for ``duration`` starting no earlier than ``start``.

        Returns the actual ``(start, end)`` of the busy interval, which may
        begin later than requested if the component was already busy
        (queueing on the single chaincode container, disk, etc.).
        """
        resource = self._components.get(component)
        if resource is None:
            raise SimulationError(f"unknown device component {component!r}")
        if duration <= 0:
            return (start, start)
        span = resource.reserve(start, duration)
        self._busy[component].extend(span)
        return span

    def charge_cpu(self, start: float, duration: float) -> Tuple[float, float]:
        """Shorthand for occupying the CPU."""
        return self.occupy("cpu", start, duration)

    # ------------------------------------------------------------ accounting
    def busy_time(
        self,
        window: Optional[Tuple[float, float]] = None,
        component: Optional[str] = None,
    ) -> float:
        """Total busy seconds, optionally restricted to a window / component.

        Concurrent busy intervals on different cores are summed, so the
        result can exceed the window length; utilization normalizes by the
        core count.  Spans are summed in the order they were charged,
        component by component.
        """
        logs = self._busy.values() if component is None else [self._busy.get(component, ())]
        total = 0.0
        for log in logs:
            spans = zip(log[::2], log[1::2])
            if window is None:
                for start, end in spans:
                    total += end - start
            else:
                for span in spans:
                    total += interval_overlap(span, window)
        return total

    def utilization(self, window: Tuple[float, float], component: str = "cpu") -> float:
        """Average utilization of a component over ``window`` (0..1)."""
        start, end = window
        length = end - start
        if length <= 0:
            return 0.0
        capacity = {
            "cpu": self.profile.cores,
            "disk": 1,
            "nic": 1,
        }.get(component, 1)
        busy = self.busy_time(window=window, component=component)
        return min(1.0, busy / (length * capacity))
