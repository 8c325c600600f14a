"""Deterministic identifier generation.

Benchmarks must be reproducible run-to-run, so identifiers are produced by
a counter-based generator instead of ``uuid.uuid4``.  Each subsystem owns an
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

    ``prefix`` is a short namespace such as ``"tx"`` or ``"block"``; two
    generators with the same prefix produce the same sequence.
    """

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._counter: Iterator[int] = itertools.count()

    def next(self) -> str:
        """Return the next identifier in the sequence."""
        index = next(self._counter)
        suffix = short_uid(f"hyperprov:{self.prefix}:{index}", 8)
        return f"{self.prefix}-{index}-{suffix}"
