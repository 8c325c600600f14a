"""What a committed post leaves behind is ledger state and nothing else.

HyperProv's target is a 1 GB Raspberry Pi, so memory per committed post is
a budget, not an accident.  The budgets below are the values measured for
this workload plus 15 %; a cached envelope, a per-charge log record or a
memo that pins proposal bytes each breaks them on their own (the commit
before these budgets existed measures 11 151 B and 27.1 objects per post).
"""

import gc
import tracemalloc

from repro.api.service import HyperProvService
from repro.common.hashing import checksum_of
from repro.core.topology import build_desktop_deployment

#: Posts submitted between two drains; a post depends on the one a round back.
ROUND = 100
WARMUP_POSTS = 2 * ROUND
POSTS = 20 * ROUND
#: Measured 5 055 B and 19.2 GC-tracked objects per post, + 15 %.
BYTES_PER_POST = 5815
OBJECTS_PER_POST = 22.1


def _post_rounds(session, start: int, stop: int) -> int:
    """Submit posts ``start..stop`` a round at a time; returns how many committed."""
    committed = []
    for first in range(start, stop, ROUND):
        for index in range(first, first + ROUND):
            key = f"sensor/{index:05d}"
            session.submit(
                key,
                checksum=checksum_of(key),
                location=f"ext://{key}",
                dependencies=[f"sensor/{index - ROUND:05d}"] if index >= ROUND else [],
                metadata={"unit": "celsius", "site": index % 7},
                size_bytes=4096,
            ).add_done_callback(lambda handle: committed.append(handle.ok))
        session.drain()
    return sum(committed)


def test_a_committed_post_retains_a_bounded_number_of_bytes_and_objects():
    deployment = build_desktop_deployment(seed=11)
    session = HyperProvService(deployment).session()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        # Lazy set-up (certificate encodings, interned names, the first
        # growth of every table) is not per-post retention.
        assert _post_rounds(session, 0, WARMUP_POSTS) == WARMUP_POSTS
        gc.collect()
        bytes_before = tracemalloc.get_traced_memory()[0]
        objects_before = len(gc.get_objects())

        assert _post_rounds(session, WARMUP_POSTS, WARMUP_POSTS + POSTS) == POSTS
        gc.collect()
        retained_bytes = (tracemalloc.get_traced_memory()[0] - bytes_before) / POSTS
        retained_objects = (len(gc.get_objects()) - objects_before) / POSTS
    finally:
        if not was_tracing:
            tracemalloc.stop()

    assert deployment.fabric.in_flight() == 0
    assert retained_bytes <= BYTES_PER_POST, f"{retained_bytes:.0f} B retained per post"
    assert retained_objects <= OBJECTS_PER_POST, f"{retained_objects:.1f} objects per post"
