"""Labelled metrics: counters, count/sum/max histograms and one text export.

Each observation is one series: a literal name plus labels.  A registry
carries its component's constant labels (``component`` and the peer,
orderer, client or tenant); a series adds its own (``op``, ``shard`` …).
A read never creates a series: an absent one reads as 0.  The names are
catalogued in the "Metrics" table of ``docs/api.md``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

#: A series' own labels, sorted by label name.
Labels = Tuple[Tuple[str, str], ...]


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``samples``, ``pct`` in [0, 100].

    The single shared implementation the benchmark harness
    (``StoreDataRunner.run``) and the workloads use, so every reported
    percentile uses the same method.  Returns ``0.0`` for an empty sample set.
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


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Increase the counter; ``amount`` must not be negative."""
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class Histogram:
    """Count, sum and maximum of non-negative observations; no samples kept."""

    __slots__ = ("count", "total", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.maximum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        # One addition at a time, in arrival order: up to Python 3.11 that is
        # the sum ``sum()`` of the samples gave, so means stay bit-identical
        # there; 3.12's ``sum()`` compensates, and may differ in the last bits.
        self.total += value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def _key(name: str, labels: Dict[str, str]) -> Tuple[str, Labels]:
    return name, (tuple(sorted(labels.items())) if labels else ())


class MetricsRegistry:
    """The counters and histograms of one component, under its constant labels."""

    def __init__(self, **labels: str) -> None:
        #: Stamped on every series of this registry when it is exported.
        self.labels: Dict[str, str] = labels
        self._counters: Dict[Tuple[str, Labels], Counter] = {}
        self._histograms: Dict[Tuple[str, Labels], Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        """The series ``name`` with ``labels``, created on first use."""
        key = _key(name, labels)
        return self._counters.get(key) or self._counters.setdefault(key, Counter())

    def histogram(self, name: str, **labels: str) -> Histogram:
        """The series ``name`` with ``labels``, created on first use."""
        key = _key(name, labels)
        return self._histograms.get(key) or self._histograms.setdefault(key, Histogram())

    def get_counter(self, name: str, **labels: str) -> float:
        """The counter's value; ``0.0`` for a series never recorded."""
        series = self._counters.get(_key(name, labels))
        return series.value if series is not None else 0.0

    def get_histogram(self, name: str, **labels: str) -> Histogram:
        """The histogram, or an empty one (not registered) if never recorded."""
        return self._histograms.get(_key(name, labels)) or Histogram()


#: The text format's label-value escapes: backslash, double quote, newline.
_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n"})


def _label_text(labels: Labels) -> str:
    pairs = ",".join(f'{name}="{value.translate(_ESCAPES)}"' for name, value in labels)
    return "{" + pairs + "}" if pairs else ""


def render_exposition(registries: Iterable[MetricsRegistry]) -> str:
    """Every series of ``registries`` in the Prometheus text exposition format.

    A name ``a.b`` is exported as ``hyperprov_a_b``, its labels being its
    registry's constant labels followed by its own.  A counter is one
    sample; a histogram is a ``summary`` of ``_sum`` and ``_count`` plus,
    once observed, its maximum as the ``quantile="1"`` sample.  Families
    come in name order, series in registry order.
    """
    families: Dict[str, Tuple[str, List[str]]] = {}
    for registry in registries:
        constant = tuple(registry.labels.items())
        for (name, own), counter in registry._counters.items():
            name = "hyperprov_" + name.replace(".", "_")
            families.setdefault(name, ("counter", []))[1].append(
                f"{name}{_label_text(constant + own)} {counter.value!r}"
            )
        for (name, own), histogram in registry._histograms.items():
            name = "hyperprov_" + name.replace(".", "_")
            labels = constant + own
            lines = families.setdefault(name, ("summary", []))[1]
            if histogram.count:
                quantile = _label_text(labels + (("quantile", "1"),))
                lines.append(f"{name}{quantile} {float(histogram.maximum)!r}")
            lines.append(f"{name}_sum{_label_text(labels)} {histogram.total!r}")
            lines.append(f"{name}_count{_label_text(labels)} {histogram.count!r}")
    return "".join(
        f"# TYPE {name} {kind}\n" + "".join(line + "\n" for line in lines)
        for name, (kind, lines) in sorted(families.items())
    )
