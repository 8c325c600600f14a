"""Host-noise handling for the wall-clock benchmark.

Everything that exists only because the benchmark runs on a small shared
VM lives here, so the workloads stay free of it:

* :func:`ensure_fixed_hash_seed` re-executes the interpreter with
  ``PYTHONHASHSEED=0`` so ``str`` hashing (dict/set layout, hence
  allocation pattern) is the same in every run.
* :func:`calibration_slice` is a fixed ~1.75 ms pure-Python json/sha256/dict
  kernel.  :class:`Recorder` interleaves one slice per
  :data:`SLICE_INTERVAL_S` of timed work and brings every stretch between
  two slices to **reference speed** with the factor
  ``REF_SLICE_S / mean(the two slices)`` (> 1: this host was faster than
  the reference sandbox just then): ``t_ref = t_raw * factor``.
  ``host.speed_factor`` is the same ratio for the pass as a whole, from
  the median slice.
* :func:`pass_spread` (max / min pass throughput) flags a noisy run.

Virtual-time results never pass through this module.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
from array import array
from statistics import median
from typing import Callable, List, Sequence

#: Duration of one calibration slice on the quiet reference sandbox
#: (2-core shared VM, CPython 3.11).  Committed once: changing it rescales
#: every host-time metric of every workload.
REF_SLICE_S = 0.001750

#: Timed work between two calibration slices (a slice costs ~3.5 % of it).
SLICE_INTERVAL_S = 0.050

#: A run whose pass throughputs differ by more than this ratio is still
#: reported, but flagged ``"noisy": true``.
NOISY_PASS_SPREAD = 1.25

_SLICE_ITEMS = 200

clock = time.perf_counter


def ensure_fixed_hash_seed() -> None:
    """Re-exec this interpreter with ``PYTHONHASHSEED=0`` unless already set."""
    if os.environ.get("PYTHONHASHSEED") == "0":
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def calibration_slice() -> float:
    """Run the fixed kernel once; return its host duration in seconds.

    The mix (format strings, ``json`` both ways, sha256, dict inserts)
    mirrors what the simulator's hot paths spend their time on, so host
    slowdowns hit the kernel and the workload alike.  The collector is off
    for the duration: a generation-2 pass over the workload's heap landing
    inside a slice says nothing about the host.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run_kernel()
    finally:
        if collecting:
            gc.enable()


def _run_kernel() -> float:
    begin = clock()
    table = {}
    for index in range(_SLICE_ITEMS):
        document = {
            "key": f"cal/{index % 16:02d}/item-{index:06d}",
            "deps": [index, index * 2],
            "meta": {"hot": index % 16 == 0, "seq": index},
        }
        blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        table[digest[:12]] = json.loads(blob)
    if len(table) != _SLICE_ITEMS:  # consume the result inside the timed region
        raise RuntimeError("calibration kernel produced colliding digests")
    return clock() - begin


class Recorder:
    """Host-time bookkeeping of one pass.

    ``call`` times one client call (a latency sample *and* part of the
    timed region); ``background`` times work that belongs to the timed
    region but is not a client call (``drain()``, the parallel fleet
    run).  Everything between those — generating the next operation,
    checking an answer against the reference model, the calibration
    slices themselves — is outside the timed region.

    The timed work is cut into *segments* of about
    :data:`SLICE_INTERVAL_S`, each bracketed by two calibration slices.
    A segment is brought to reference speed with its own factor,
    ``REF_SLICE_S / mean(the two slices)``: on this VM the host switches
    between a fast and a ~1.5x slower regime every few seconds, so one
    factor per pass would average over both.
    """

    def __init__(self) -> None:
        self.call_s = array("d")
        self.slice_s = array("d", [calibration_slice()])
        #: Per segment: index of its first call, and its background time.
        self._first_call = array("L", [0])
        self._background_s = array("d", [0.0])
        self._since_slice = 0.0

    def call(self, fn: Callable, *args, **kwargs):
        begin = clock()
        result = fn(*args, **kwargs)
        elapsed = clock() - begin
        self.call_s.append(elapsed)
        self._advance(elapsed)
        return result

    def background(self, fn: Callable, *args, **kwargs):
        begin = clock()
        result = fn(*args, **kwargs)
        elapsed = clock() - begin
        self._background_s[-1] += elapsed
        self._advance(elapsed)
        return result

    def _advance(self, elapsed: float) -> None:
        self._since_slice += elapsed
        if self._since_slice >= SLICE_INTERVAL_S:
            self._since_slice = 0.0
            self.slice_s.append(calibration_slice())
            self._first_call.append(len(self.call_s))
            self._background_s.append(0.0)

    def finish(self) -> None:
        """Close the last segment with its trailing slice."""
        self.slice_s.append(calibration_slice())

    # ------------------------------------------------------------ results
    def _segment_factors(self) -> List[float]:
        slices = self.slice_s
        if len(slices) != len(self._first_call) + 1:
            raise RuntimeError("Recorder.finish() must be called once, after the timed region")
        return [
            2.0 * REF_SLICE_S / (slices[i] + slices[i + 1])
            for i in range(len(self._first_call))
        ]

    @property
    def background_s(self) -> float:
        """Raw host time of the non-call work so far."""
        return sum(self._background_s)

    @property
    def region_s(self) -> float:
        """Raw host time of the timed region."""
        return sum(self.call_s) + self.background_s

    @property
    def reference_region_s(self) -> float:
        """Host time of the timed region at reference speed."""
        bounds = list(self._first_call) + [len(self.call_s)]
        return sum(
            factor * (sum(self.call_s[bounds[i]:bounds[i + 1]]) + self._background_s[i])
            for i, factor in enumerate(self._segment_factors())
        )

    def reference_background_s(self, segment: int) -> float:
        """Background time of one segment at reference speed."""
        return self._segment_factors()[segment] * self._background_s[segment]

    def reference_calls_s(self) -> List[float]:
        """Every call latency at reference speed, in call order."""
        bounds = list(self._first_call) + [len(self.call_s)]
        scaled: List[float] = []
        for i, factor in enumerate(self._segment_factors()):
            scaled.extend(t * factor for t in self.call_s[bounds[i]:bounds[i + 1]])
        return scaled

    @property
    def speed_factor(self) -> float:
        """The pass as a whole: ``REF_SLICE_S / median(slice_s)``."""
        return REF_SLICE_S / median(self.slice_s)


def pass_spread(throughputs: Sequence[float]) -> float:
    """Max / min pass throughput (1.0 for a single pass)."""
    return max(throughputs) / min(throughputs)


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_imports(modules: List[str]) -> float:
    """Import ``modules`` (first import in this process); seconds at reference speed."""
    before = calibration_slice()
    begin = clock()
    for name in modules:
        __import__(name)
    elapsed = clock() - begin
    return elapsed * 2.0 * REF_SLICE_S / (before + calibration_slice())
