"""Deterministic payload generators."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator

from repro.common.errors import ConfigurationError
from repro.common.hashing import checksum_of
from repro.simulation.randomness import DeterministicRandom


@dataclass
class DataItem:
    """A generated data item ready to be stored through HyperProv."""

    key: str
    data: bytes
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def size_bytes(self) -> int:
        return len(self.data)

    @property
    def checksum(self) -> str:
        return checksum_of(self.data)


class PayloadGenerator:
    """Base generator producing fixed-size pseudo-random payloads."""

    def __init__(self, size_bytes: int, seed: int = 42, prefix: str = "item") -> None:
        if size_bytes < 0:
            raise ConfigurationError("payload size cannot be negative")
        self.size_bytes = size_bytes
        self.prefix = prefix
        self._rng = DeterministicRandom(seed)
        self._counter = 0

    def _payload(self, size: int) -> bytes:
        # A repeated deterministic block keeps generation cheap for large
        # payloads while still making every item unique (counter suffix).
        block = self._rng.bytes(min(size, 4096)) if size else b""
        if size <= len(block):
            body = block[:size]
        else:
            repeats = size // max(1, len(block)) + 1
            body = (block * repeats)[:size]
        return body

    def next_item(self) -> DataItem:
        """Generate the next data item."""
        self._counter += 1
        key = f"{self.prefix}/{self._counter:06d}"
        suffix = f"#{self._counter}".encode("ascii")
        data = self._payload(max(0, self.size_bytes - len(suffix))) + suffix
        return DataItem(key=key, data=data, metadata={"sequence": self._counter})

    def next_key(self) -> str:
        """Advance the sequence and return only the next item's key.

        Metadata-only workloads (provenance posts whose payload lives
        elsewhere) never touch the payload bytes; skipping their
        generation keeps the benchmark driver off the simulator's
        wall-clock profile.  The key sequence is identical to the one
        :meth:`next_item` produces.
        """
        self._counter += 1
        return f"{self.prefix}/{self._counter:06d}"

    def items(self, count: int) -> Iterator[DataItem]:
        """Generate ``count`` items lazily."""
        for _ in range(count):
            yield self.next_item()


class SensorReadingGenerator(PayloadGenerator):
    """Small JSON sensor readings (temperature/humidity/air quality)."""

    def __init__(self, sensor_id: str = "sensor-1", seed: int = 42) -> None:
        super().__init__(size_bytes=0, seed=seed, prefix=f"sensors/{sensor_id}")
        self.sensor_id = sensor_id

    def next_item(self) -> DataItem:
        self._counter += 1
        reading = {
            "sensor": self.sensor_id,
            "sequence": self._counter,
            "temperature_c": round(self._rng.uniform(-20.0, 35.0), 2),
            "humidity_pct": round(self._rng.uniform(10.0, 95.0), 1),
            "pm25_ugm3": round(self._rng.uniform(1.0, 80.0), 1),
        }
        data = json.dumps(reading, sort_keys=True).encode("utf-8")
        key = f"{self.prefix}/reading-{self._counter:06d}"
        return DataItem(key=key, data=data, metadata={"type": "sensor-reading"})


class ImagePayloadGenerator(PayloadGenerator):
    """Camera-image-sized binary payloads (hundreds of KB to a few MB)."""

    def __init__(
        self,
        camera_id: str = "camera-1",
        size_bytes: int = 2 * 1024 * 1024,
        size_jitter: float = 0.2,
        seed: int = 42,
    ) -> None:
        super().__init__(size_bytes=size_bytes, seed=seed, prefix=f"cameras/{camera_id}")
        self.camera_id = camera_id
        self.size_jitter = size_jitter

    def next_item(self) -> DataItem:
        self._counter += 1
        size = int(self._rng.gaussian_jitter(self.size_bytes, self.size_jitter)) or 1
        data = self._payload(size) + f"#frame-{self._counter}".encode("ascii")
        key = f"{self.prefix}/frame-{self._counter:06d}"
        return DataItem(
            key=key,
            data=data,
            metadata={"type": "camera-frame", "camera": self.camera_id},
        )
