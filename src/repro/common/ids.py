"""Deterministic identifier generation.

Benchmarks must be reproducible run-to-run, so identifiers are produced by
a seeded generator instead of ``uuid.uuid4``.  Each subsystem owns an
:class:`IdGenerator` namespaced by a prefix (``tx``, ``block``, ``node``…).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterator


def short_uid(seed: str, length: int = 12) -> str:
    """Derive a short, stable identifier from an arbitrary seed string."""
    return hashlib.sha256(seed.encode("utf-8")).hexdigest()[:length]


class IdGenerator:
    """Produces unique, deterministic identifiers of the form ``prefix-N-hash``.

    Parameters
    ----------
    prefix:
        A short namespace such as ``"tx"`` or ``"block"``.
    seed:
        Run-level seed; two generators created with the same prefix and
        seed produce the same sequence.
    """

    def __init__(self, prefix: str, seed: str = "hyperprov") -> None:
        self.prefix = prefix
        self.seed = seed
        self._counter: Iterator[int] = itertools.count()

    def next(self) -> str:
        """Return the next identifier in the sequence."""
        index = next(self._counter)
        suffix = short_uid(f"{self.seed}:{self.prefix}:{index}", 8)
        return f"{self.prefix}-{index}-{suffix}"
