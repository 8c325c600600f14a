"""Lightweight metrics registry (counters, gauges, histograms).

Every node, the client library and the benchmark harness record their
observations here.  The registry is plain in-memory data with summary
helpers — enough to regenerate the paper's tables without an external
metrics stack.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``samples``, ``pct`` in [0, 100].

    The single shared implementation used by :class:`Histogram` and the
    benchmark harness (``RunResult``), so every reported percentile uses
    the same method.  Returns ``0.0`` for an empty sample set.
    """
    if not samples:
        return 0.0
    if not 0.0 <= pct <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


@dataclass
class Counter:
    """Monotonically increasing counter."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Increase the counter; ``amount`` must not be negative."""
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down (queue depth, power draw, ...)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


@dataclass
class Histogram:
    """Stores every observation, as packed doubles (8 bytes a sample)."""

    name: str
    samples: array = field(default_factory=lambda: array("d"))

    def observe(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return float(sum(self.samples))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.samples else 0.0

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    @property
    def stddev(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        mean = self.mean
        variance = sum((x - mean) ** 2 for x in self.samples) / (len(self.samples) - 1)
        return math.sqrt(variance)

    def percentile(self, pct: float) -> float:
        """Linear-interpolated percentile, ``pct`` in [0, 100]."""
        return percentile(self.samples, pct)


class MetricsRegistry:
    """Named collection of counters, gauges and histograms."""

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _qualify(self, name: str) -> str:
        return f"{self.namespace}.{name}" if self.namespace else name

    def counter(self, name: str) -> Counter:
        key = self._qualify(name)
        if key not in self._counters:
            self._counters[key] = Counter(key)
        return self._counters[key]

    def gauge(self, name: str) -> Gauge:
        key = self._qualify(name)
        if key not in self._gauges:
            self._gauges[key] = Gauge(key)
        return self._gauges[key]

    def histogram(self, name: str) -> Histogram:
        key = self._qualify(name)
        if key not in self._histograms:
            self._histograms[key] = Histogram(key)
        return self._histograms[key]

    def get_counter(self, name: str) -> Optional[Counter]:
        return self._counters.get(self._qualify(name))

    def get_histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(self._qualify(name))

    def snapshot(self) -> Dict[str, float]:
        """Flat dictionary of every metric's current value (histogram means)."""
        data: Dict[str, float] = {}
        for counter in self._counters.values():
            data[counter.name] = counter.value
        for gauge in self._gauges.values():
            data[gauge.name] = gauge.value
        for histogram in self._histograms.values():
            data[f"{histogram.name}.mean"] = histogram.mean
            data[f"{histogram.name}.count"] = float(histogram.count)
        return data

    def reset(self) -> None:
        """Drop all recorded metrics."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
