"""A random stream holds a generator only once it has drawn past its batch.

A fleet gives every device and every directed link a stream of its own,
and most of them draw a handful of values in their life.  A Mersenne
Twister is 2.5 KB, so a stream that held one from its construction made
the streams a third of a fleet pass's memory.  This test runs a small
fleet, bounds each stream's draws from its calls, and holds the live
generators to the streams that drew past ``BATCH`` (or asked for bytes),
and the bytes ``randomness.py`` allocated to a budget per stream.  The
budget is the value measured for this workload plus 15 %, the rule of
``test_retention.py``; a stream that seeds its generator at construction
allocates 2 682 B on the same run.
"""

import gc
import random
import tracemalloc
from typing import Callable, Dict, List

import repro.simulation.randomness as randomness
from repro.bench.fleet import fleet_spec
from repro.simulation.randomness import BATCH, DeterministicRandom
from repro.workloads.fleet import build_fleet, submit_fleet

#: Generators the bound may miss: none are expected.
SLACK = 2
#: Measured 314 B per stream the run made (Python 3.11), + 15 %.
BYTES_PER_STREAM = 361

#: The most values each call draws, from its arguments (``None``: keeps a generator).
MOST_DRAWN: Dict[str, Callable[..., object]] = {
    "random": lambda: 1,
    "uniform": lambda low, high: 1,
    "exponential": lambda mean: 1 if mean > 0 else 0,
    "gaussian_jitter": lambda mean, stddev_fraction=0.1: 2 if mean > 0 else 0,
    "bytes": lambda length: None if length > 0 else 0,
}


def _count_draws(monkeypatch) -> Dict[int, List]:
    """``id(stream) -> [stream, most values drawn]``, kept up by every call.

    A call made from inside another (``gauss`` asks the stream for
    ``random()``) is the outer call's draw and is not counted again.  The
    table holds its streams alive, so an id is never reused.
    """
    bounds: Dict[int, List] = {}
    inside = [False]

    def counted(name: str):
        original = getattr(DeterministicRandom, name)

        def call(self, *args, **kwargs):
            if inside[0]:
                return original(self, *args, **kwargs)
            entry = bounds.setdefault(id(self), [self, 0])
            most = MOST_DRAWN[name](*args, **kwargs)
            entry[1] = float("inf") if most is None else entry[1] + most
            inside[0] = True
            try:
                return original(self, *args, **kwargs)
            finally:
                inside[0] = False

        return call

    for name in MOST_DRAWN:
        monkeypatch.setattr(DeterministicRandom, name, counted(name))
    return bounds


def _live(kind: type) -> int:
    return sum(1 for item in gc.get_objects() if isinstance(item, kind))


def test_a_fleets_streams_keep_generators_only_past_their_batch(monkeypatch):
    bounds = _count_draws(monkeypatch)
    was_tracing = tracemalloc.is_tracing()
    gc.collect()
    generators_before = _live(random.Random)
    streams_before = _live(DeterministicRandom)
    if not was_tracing:
        tracemalloc.start()
    try:
        deployment = build_fleet(fleet_spec(devices=300, shards=2, seed=5))
        submit_fleet(deployment)
        deployment.engine.run()
        deployment.drain()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        if not was_tracing:
            tracemalloc.stop()

    streams = _live(DeterministicRandom) - streams_before
    outdrawn = sum(1 for _, most in bounds.values() if most > BATCH)
    generators = _live(random.Random) - generators_before
    assert streams > 1000 and len(bounds) > 1000, (streams, len(bounds))
    assert generators <= outdrawn + SLACK, f"{generators} generators, {outdrawn} streams past BATCH"

    allocated = snapshot.filter_traces([tracemalloc.Filter(True, randomness.__file__)])
    per_stream = sum(stat.size for stat in allocated.statistics("filename")) / streams
    assert per_stream <= BYTES_PER_STREAM, f"{per_stream:.0f} B per stream"
