"""A random stream draws what a live ``random.Random(seed)`` draws.

``DeterministicRandom`` holds no generator until its first draw, serves
its first ``BATCH`` values from an array, and seeds a generator to keep
only when it needs more or asks for bytes.  None of that may show: for
any seed, fork label and interleaving of calls, every output equals
(``==``) what :class:`LiveStream` — the class as it was before, a thin
wrapper over a live ``random.Random(seed)`` — returns for the same calls.
Every anchor, table and virtual time rests on this.

The distributions are CPython's ``random.Random.gauss``, ``expovariate``
and ``uniform``, whose formulas are the ones both classes must agree on.
Only the CI legs on Python 3.9 and 3.12 check that those versions'
formulas keep the promise.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, List, Tuple

from hypothesis import given, strategies as st

from repro.simulation.randomness import BATCH, DeterministicRandom
from tests.property_budgets import budget


class LiveStream:
    """The oracle: every draw goes to a generator seeded at construction."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def exponential(self, mean: float) -> float:
        if mean <= 0:
            return 0.0
        return self._rng.expovariate(1.0 / mean)

    def gaussian_jitter(self, mean: float, stddev_fraction: float = 0.1) -> float:
        if mean <= 0:
            return 0.0
        value = self._rng.gauss(mean, mean * stddev_fraction)
        return value if value > 0.0 else 0.0

    def random(self) -> float:
        return self._rng.random()

    def bytes(self, length: int) -> bytes:
        if length <= 0:
            return b""
        return self._rng.getrandbits(32 * length).to_bytes(4 * length, "little")[3::4]

    def fork(self, label: str) -> "LiveStream":
        label_digest = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:4], "big")
        return LiveStream((self.seed * 1_000_003 + label_digest) & 0x7FFFFFFF)


Call = Tuple[Any, ...]

MEANS = st.floats(-2.0, 50.0, allow_nan=False)
calls = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(
        st.just("uniform"),
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
    ),
    st.tuples(st.just("exponential"), MEANS),
    st.tuples(st.just("gaussian_jitter"), MEANS, st.floats(0.0, 2.0, allow_nan=False)),
    st.tuples(st.just("bytes"), st.integers(-1, 40)),
)


def _stream_pair(seed: int, labels: List[str]) -> Tuple[DeterministicRandom, LiveStream]:
    stream, oracle = DeterministicRandom(seed), LiveStream(seed)
    for label in labels:
        stream, oracle = stream.fork(label), oracle.fork(label)
    assert stream.seed == oracle.seed
    return stream, oracle


def _replay(stream: DeterministicRandom, oracle: LiveStream, program: List[Call]) -> None:
    for step, (name, *args) in enumerate(program):
        drawn: Callable[..., Any] = getattr(stream, name)
        expected: Callable[..., Any] = getattr(oracle, name)
        assert drawn(*args) == expected(*args), (step, name, args)


@budget
@given(
    seed=st.integers(0, 2**31 - 1),
    labels=st.lists(st.text(max_size=12), max_size=2),
    lead=st.integers(0, 2 * BATCH + 2),
    lead_call=calls,
    program=st.lists(calls, max_size=2 * BATCH),
)
def test_a_stream_draws_what_a_live_generator_draws(seed, labels, lead, lead_call, program):
    """``lead`` copies of one call first, so most programs cross the batch."""
    stream, oracle = _stream_pair(seed, labels)
    _replay(stream, oracle, [lead_call] * lead + program)


KINDS: List[Call] = [
    ("random",), ("uniform", -1.0, 3.0), ("exponential", 2.0), ("gaussian_jitter", 5.0, 0.3),
]


def test_every_crossing_of_the_batch_draws_what_a_live_generator_draws():
    """Each kind of draw up to and past the batch, then each way of going on."""
    for lead in range(2 * BATCH + 3):
        for first in KINDS:
            for then in KINDS + [("bytes", 5), ("gaussian_jitter", 0.0)]:
                stream, oracle = _stream_pair(lead * 7 + 1, [])
                _replay(stream, oracle, [first] * lead + [then, ("random",), then] + KINDS)
