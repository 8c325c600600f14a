"""Deterministic randomness helpers for workloads and jitter models."""

from __future__ import annotations

import hashlib
import random
from array import array
from typing import Optional

#: How many ``random()`` values a stream takes at its first draw.  Of the
#: 17 373 streams of one sequential 3500x2 fleet pass (``benchmarks/perf``
#: ``fleet``), 17 350 draw 16 values or fewer (the modes are 2, 4, 8, 12 and
#: 16); only 23 draw more and go on to keep a generator.
BATCH = 16

# CPython's own formulas, called on whatever supplies ``random()`` and
# ``gauss_next``: a stream while its batch lasts, its kept generator after.
_gauss = random.Random.gauss
_expovariate = random.Random.expovariate
_uniform = random.Random.uniform

#: The generator every batch is drawn from.  Each fill seeds it and takes
#: its whole batch in one call, so no state passes from one stream to the
#: next.  Re-seeding spares each first draw a 2.5 KB allocation and free: a
#: new generator per batch read ``fleet`` ``call_us_p50`` +4.4 %.
_BATCHES = random.Random(0)


class DeterministicRandom:
    """A seeded random source with the distributions the simulators need.

    Every draw equals what ``random.Random(seed)`` returns for the same
    sequence of calls, whatever the stream holds at the time.  A Mersenne
    Twister is 2.5 KB, and most streams (one per link, one per device) draw
    a handful of values in their life, so a stream keeps none while its
    batch lasts: its first draw takes the first :data:`BATCH` ``random()``
    values of its seed into an array, from one module generator seeded for
    the purpose.  A stream that needs more than its batch holds, or asks
    for :meth:`bytes`, seeds a generator of its own, replays the values it
    already used, and keeps it from then on.  The distributions are
    ``random.Random``'s own methods, called on the stream (which carries
    ``random()`` and ``gauss_next``) or on the kept generator, so the
    formulas are CPython's.  Truncation helpers keep latencies and service
    times non-negative.
    """

    __slots__ = ("seed", "gauss_next", "_rng", "_batch", "_drawn")

    def __init__(self, seed: int = 42) -> None:
        self.seed = seed
        #: ``random.Random.gauss``'s second value while no generator is kept.
        self.gauss_next: Optional[float] = None
        self._rng: Optional[random.Random] = None
        self._batch: Optional[array] = None
        self._drawn = 0

    def _fill(self) -> array:
        """Take this stream's first :data:`BATCH` values."""
        _BATCHES.seed(self.seed)
        draw = _BATCHES.random
        self._batch = array("d", [draw() for _ in range(BATCH)])
        return self._batch

    def _keep(self) -> random.Random:
        """Seed the generator this stream keeps, past the values already used."""
        rng = random.Random(self.seed)
        for _ in range(self._drawn):
            rng.random()
        rng.gauss_next = self.gauss_next
        self._rng = rng
        self._batch = None
        return rng

    def uniform(self, low: float, high: float) -> float:
        return _uniform(self._rng or self, low, high)

    def exponential(self, mean: float) -> float:
        """Exponentially distributed value with the given mean (>= 0)."""
        if mean <= 0:
            return 0.0
        return _expovariate(self._rng or self, 1.0 / mean)

    def gaussian_jitter(self, mean: float, stddev_fraction: float = 0.1) -> float:
        """A mean value perturbed by Gaussian noise, truncated at zero.

        ``stddev_fraction`` is relative to the mean, which is how hardware
        variance is expressed in the device profiles (e.g. the RPi shows
        larger relative variance than the desktops in Fig. 2).
        """
        if mean <= 0:
            return 0.0
        rng = self._rng
        value = _gauss(rng or self, mean, mean * stddev_fraction)
        if rng is None and self._rng is not None:
            # The batch ran out inside the call, after ``gauss`` had cached
            # its second value on the stream.
            self._rng.gauss_next = self.gauss_next
        return value if value > 0.0 else 0.0

    def random(self) -> float:
        rng = self._rng
        if rng is not None:
            return rng.random()
        drawn = self._drawn
        if drawn == BATCH:
            return self._keep().random()
        self._drawn = drawn + 1
        return (self._batch or self._fill())[drawn]

    def bytes(self, length: int) -> bytes:
        """Deterministic pseudo-random payload bytes of the given length.

        The stream of ``length`` one-byte draws, in one call: each
        ``getrandbits(8)`` is the top byte of one 32-bit word, and
        ``getrandbits(32 * n)`` lays its words out least significant first.
        """
        if length <= 0:
            return b""
        rng = self._rng or self._keep()
        return rng.getrandbits(32 * length).to_bytes(4 * length, "little")[3::4]

    def fork(self, label: str) -> "DeterministicRandom":
        """Derive an independent stream for a sub-component.

        Uses a stable hash of ``label`` (not the built-in ``hash``, which is
        randomized per process) so forked streams are identical across runs.
        """
        label_digest = int.from_bytes(
            hashlib.sha256(label.encode("utf-8")).digest()[:4], "big"
        )
        derived_seed = (self.seed * 1_000_003 + label_digest) & 0x7FFFFFFF
        return DeterministicRandom(derived_seed)
