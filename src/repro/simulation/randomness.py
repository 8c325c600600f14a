"""Deterministic randomness helpers for workloads and jitter models."""

from __future__ import annotations

import random
from typing import TypeVar

T = TypeVar("T")


class DeterministicRandom:
    """A seeded random source with the distributions the simulators need.

    A thin wrapper over :class:`random.Random` that adds truncation helpers
    (latencies and service times must never be negative) and keeps the seed
    around for reporting.
    """

    def __init__(self, seed: int = 42) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def exponential(self, mean: float) -> float:
        """Exponentially distributed value with the given mean (>= 0)."""
        if mean <= 0:
            return 0.0
        return self._rng.expovariate(1.0 / mean)

    def gaussian_jitter(self, mean: float, stddev_fraction: float = 0.1) -> float:
        """A mean value perturbed by Gaussian noise, truncated at zero.

        ``stddev_fraction`` is relative to the mean, which is how hardware
        variance is expressed in the device profiles (e.g. the RPi shows
        larger relative variance than the desktops in Fig. 2).
        """
        if mean <= 0:
            return 0.0
        value = self._rng.gauss(mean, mean * stddev_fraction)
        return value if value > 0.0 else 0.0

    def random(self) -> float:
        return self._rng.random()

    def bytes(self, length: int) -> bytes:
        """Deterministic pseudo-random payload bytes of the given length.

        The stream of ``length`` one-byte draws, in one call: each
        ``getrandbits(8)`` is the top byte of one 32-bit word, and
        ``getrandbits(32 * n)`` lays its words out least significant first.
        """
        if length <= 0:
            return b""
        return self._rng.getrandbits(32 * length).to_bytes(4 * length, "little")[3::4]

    def fork(self, label: str) -> "DeterministicRandom":
        """Derive an independent stream for a sub-component.

        Uses a stable hash of ``label`` (not the built-in ``hash``, which is
        randomized per process) so forked streams are identical across runs.
        """
        import hashlib

        label_digest = int.from_bytes(
            hashlib.sha256(label.encode("utf-8")).digest()[:4], "big"
        )
        derived_seed = (self.seed * 1_000_003 + label_digest) & 0x7FFFFFFF
        return DeterministicRandom(derived_seed)
