"""The four benchmark workloads: seeded generators and their drivers.

Each ``run_<workload>(seed, scale, tracer)`` builds a fresh deployment
(set-up, timed separately), runs the timed region through a
:class:`host.Recorder`, checks every answer against the reference model
and returns a :class:`PassResult`.  The program under test only ever sees
generated inputs; ``seed`` feeds the generators *and* the deployment's
own virtual-time jitter streams.

Sizes are the constants below times ``scale`` (1.0 = the committed
``run_seconds``; the warm-up pass runs at 0.25).  They put ~5 s of timed
work into one pass on the 2-core reference sandbox.

Why these four (see README.md for the full argument):

``ingest``      write path only — middleware chain → invoke stages →
                endorse → order → commit → ledger.
``read_mix``    the same fabric/chaincode/ledger layers used the other way,
                working set far past any cache, no indexes.
``tenant_mix``  the middleware-tax workload: tenancy, admission, shard
                routing, cache, planner, indexes, continuous queries,
                off-chain storage; cache hits bypass fabric entirely.
``fleet``       simulation/network/consensus/fabric under faults, client
                middleware bypassed; sequential vs parallel executor.
"""

from __future__ import annotations

import gc
import os
import random
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import accumulate
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.api.service import HyperProvService, ProvenanceSession
from repro.bench.fleet import fleet_spec
from repro.common.errors import HyperProvError
from repro.common.hashing import checksum_of
from repro.core.topology import HyperProvDeployment, build_desktop_deployment
from repro.middleware.config import PipelineConfig
from repro.simulation.parallel import run_fleet_parallel
from repro.workloads.fleet import (
    build_fleet,
    commit_anchor,
    commit_counts,
    commit_log_lines,
    submit_fleet,
)

from host import Recorder
from model import Checker, ReferenceModel, SimAnchor
from tracer import Tracer

# ------------------------------------------------------------------- sizes
INGEST_OPS = 9_000
READ_MIX_PRELOAD_OPS = 10_000
READ_MIX_OPS = 5_200
TENANT_MIX_KEYS_PER_TENANT = 1_500
TENANT_MIX_OPS = 10_500
FLEET_DEVICES = 3_500

#: Closed-loop depth of the ingest driver (kept above the orderer's
#: MaxMessageCount of 10 so blocks are cut by count, not by timeout).
SLOTS = 16
SLOT_STAGGER_S = 0.001
GROUPS = 16
#: Operation mixes are *stratified*: every consecutive ``len(mix)``
#: operations are a seeded shuffle of the mix, so each seed runs exactly
#: the same amount of each kind of work and only order and keys vary.
#: ingest: (updates an existing key, carries one dependency) — 20 % / 50 %.
INGEST_MIX = (
    [(True, True), (True, False)] + [(False, True)] * 4 + [(False, False)] * 4
)
READ_MIX = ["get"] * 8 + ["verify"] * 3 + ["history"] * 3 + ["range"] * 2 + ["query"] * 4
TENANT_MIX = ["submit"] * 4 + ["get"] * 9 + ["verify"] * 3 + ["history"] * 2 + ["query"] * 2
#: A key written at operation ``i`` is left alone until ``i + 64``: with
#: 16 slots and 10-transaction blocks everything older has committed, so
#: no generated operation can lose an MVCC race.
CONFLICT_WINDOW = 64
RANGE_WINDOW = 64
QUERY_LIMIT = 50

TENANTS = 4
TENANT_PAYLOAD_BYTES = 4096
TENANT_QUERY_LIMIT = 20
TENANT_MAX_IN_FLIGHT = 32
DRAIN_EVERY = 64
ZIPF_EXPONENT = 1.1

FLEET_SHARDS = 2
FLEET_DURATION_S = 200.0
#: One fleet "call" is this many engine events.  Single events are bimodal
#: (an invoke, then the block it produces) with the median on the boundary
#: between the two classes, which no amount of measuring makes steady.
FLEET_EVENTS_PER_CALL = 10


def sized(full: int, scale: float, minimum: int) -> int:
    return max(minimum, round(full * scale))


# --------------------------------------------------------------- generators
class Write(NamedTuple):
    """One generated write (metadata-only when ``data`` is ``None``)."""

    key: str
    checksum: str
    location: Optional[str]
    dependencies: Tuple[str, ...]
    metadata: Dict[str, Any]
    size_bytes: int
    data: Optional[bytes] = None


def _rng(stream: str, seed: int) -> random.Random:
    # str seeds are hashed with SHA-512: independent of PYTHONHASHSEED.
    return random.Random(f"{stream}:{seed}")


def group_prefix(group: int) -> str:
    return f"g{group:02d}/"


def key_name(index: int) -> str:
    """Key ``index`` of a key universe: 16 prefix groups, round-robin."""
    return f"{group_prefix(index % GROUPS)}k{index:06d}"


def key_metadata(key: str) -> Dict[str, Any]:
    """Every 16th key of a group is "hot" (what the rich queries select)."""
    index = int(key[5:])
    return {"group": index % GROUPS, "hot": index // GROUPS % 16 == 0}


def _stratified(rng: random.Random, mix: List[Any], count: int) -> Iterator[Any]:
    """``count`` draws; each consecutive ``len(mix)`` are a shuffle of ``mix``."""
    block: List[Any] = []
    for _ in range(count):
        if not block:
            block = list(mix)
            rng.shuffle(block)
        yield block.pop()


def ingest_ops(seed: int, count: int) -> Iterator[Write]:
    """Metadata-only posts: 20 % updates, 50 % with one dependency.

    Updates and dependencies only ever name keys whose last write is at
    least :data:`CONFLICT_WINDOW` operations old (and updates also spare
    keys a recent operation depended on), so zero MVCC failures are
    expected — any failure is the system's.
    """
    rng = _rng("ingest", seed)
    keys: List[str] = []
    last_write: Dict[str, int] = {}
    last_read: Dict[str, int] = {}

    def settled_key(index: int, for_update: bool) -> Optional[str]:
        for _ in range(8):
            if not keys:
                return None
            key = keys[rng.randrange(len(keys))]
            horizon = index - CONFLICT_WINDOW
            if last_write[key] <= horizon and (
                not for_update or last_read.get(key, -CONFLICT_WINDOW) <= horizon
            ):
                return key
        return None

    for index, (update, depend) in enumerate(_stratified(rng, INGEST_MIX, count)):
        key = settled_key(index, True) if update else None
        if key is None:
            key = key_name(len(keys))
            keys.append(key)
        last_write[key] = index  # before the dependency draw: never depend on itself
        dependency = settled_key(index, False) if depend else None
        if dependency is not None:
            last_read[dependency] = index
        yield Write(
            key=key,
            checksum=checksum_of(f"{key}@{index}"),
            location=f"ext://{key}/{index}",
            dependencies=(dependency,) if dependency else (),
            metadata={**key_metadata(key), "seq": index},
            size_bytes=1024,
        )


def read_ops(seed: int, count: int, sorted_keys: List[str]) -> Iterator[Tuple]:
    """Uniform-key reads: 40 % get, 15 % verify, 15 % history, 10 % range, 20 % query.

    The keys are uniform; the mix is stratified (:data:`READ_MIX`).

    ``("verify", key, want_match)`` leaves the checksum to the driver,
    which resolves it against the model just before the call.
    """
    rng = _rng("read", seed)
    window = min(RANGE_WINDOW, len(sorted_keys) - 1)
    for kind in _stratified(rng, READ_MIX, count):
        key = sorted_keys[rng.randrange(len(sorted_keys))]
        if kind == "verify":
            yield (kind, key, rng.random() < 0.5)
        elif kind == "range":
            start = rng.randrange(len(sorted_keys) - window)
            yield (kind, sorted_keys[start], sorted_keys[start + window])
        elif kind == "query":
            yield (kind, group_prefix(rng.randrange(GROUPS)))
        else:
            yield (kind, key)


def tenant_keys(count: int) -> List[str]:
    """The key universe of one tenant (every tenant uses the same names)."""
    return [key_name(index) for index in range(count)]


def _tenant_write(rng: random.Random, key: str) -> Write:
    data = rng.getrandbits(8 * TENANT_PAYLOAD_BYTES).to_bytes(TENANT_PAYLOAD_BYTES, "little")
    return Write(
        key=key,
        checksum=checksum_of(data),
        location=None,
        dependencies=(),
        metadata=key_metadata(key),
        size_bytes=len(data),
        data=data,
    )


def tenant_preload(seed: int, keys: List[str]) -> Iterator[Tuple[int, Write]]:
    rng = _rng("tenant-preload", seed)
    for key in keys:
        for tenant in range(TENANTS):
            yield tenant, _tenant_write(rng, key)


def tenant_ops(seed: int, count: int, keys: List[str]) -> Iterator[Tuple]:
    """Round-robin over tenants, Zipf(1.1) keys.

    20 % writes of a fresh 4 KiB payload, 45 % get, 15 % verify, 10 %
    history, 10 % indexed query.  A (tenant, key) is written at most once
    per :data:`DRAIN_EVERY`-operation window, so writes never race.
    """
    rng = _rng("tenant", seed)
    ranked = list(keys)
    rng.shuffle(ranked)
    cdf = list(accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked))))
    written: set = set()

    def zipf_key() -> str:
        return ranked[min(bisect_left(cdf, rng.random() * cdf[-1]), len(ranked) - 1)]

    for index, kind in enumerate(_stratified(rng, TENANT_MIX, count)):
        if index % DRAIN_EVERY == 0:
            written.clear()
        tenant = index % TENANTS
        key = zipf_key()
        if kind == "submit":
            for _ in range(8):
                if (tenant, key) not in written:
                    break
                key = zipf_key()
            if (tenant, key) in written:
                kind = "get"  # every candidate was taken this window
            else:
                written.add((tenant, key))
                yield (kind, tenant, _tenant_write(rng, key))
                continue
        if kind == "verify":
            yield (kind, tenant, key, rng.random() < 0.5)
        elif kind == "query":
            yield (kind, tenant, "")
        else:
            yield (kind, tenant, key)


# ------------------------------------------------------------------ results
@dataclass
class PassResult:
    """What one pass of one workload measured."""

    ops: int
    failed: int
    #: Deployment build and preload, at reference speed.
    setup_s: float
    recorder: Recorder
    sim_latency_ms: float
    sim_anchor: str
    gc_collections: int
    notes: List[str] = field(default_factory=list)
    #: Workload-specific extras (fleet: executor walls at reference speed).
    extras: Dict[str, float] = field(default_factory=dict)


def _gc_collections() -> int:
    return sum(stats["collections"] for stats in gc.get_stats())


def _recording(tracer: Optional[Tracer]):
    return tracer.recording() if tracer is not None else nullcontext()


def _untimed(fn: Callable, *args: Any, **kwargs: Any) -> Any:
    return fn(*args, **kwargs)


def _desktop(seed: int, **topology: Any) -> Tuple[HyperProvDeployment, HyperProvService]:
    deployment = build_desktop_deployment(seed=seed, **topology)
    return deployment, HyperProvService(deployment)


WRONG_CHECKSUM = checksum_of("not the stored payload")


# ----------------------------------------------------- session bookkeeping
class _Book:
    """Per-session bookkeeping: model, checker, anchor, simulated latency."""

    def __init__(self) -> None:
        self.model = ReferenceModel()
        self.checker = Checker(self.model)
        self.anchor = SimAnchor()
        self.latency_s = 0.0
        self.measured = 0
        #: ``(write, handle)`` pairs whose done-callback fired; settled (model
        #: updated) by the driver outside the timed region.
        self.landed: List[Tuple[Write, Any]] = []

    def submit(self, call: Callable, session: ProvenanceSession, write: Write,
               at_time: Optional[float] = None) -> None:
        if write.data is None:
            handle = call(
                session.submit, write.key, checksum=write.checksum,
                location=write.location, dependencies=write.dependencies,
                metadata=write.metadata, size_bytes=write.size_bytes, at_time=at_time,
            )
        else:
            handle = call(
                session.submit, write.key, write.data,
                metadata=write.metadata, at_time=at_time,
            )
        handle.add_done_callback(lambda done: self.landed.append((write, done)))

    def settle(self, measure: bool = True) -> List[Any]:
        """Apply landed commits to the model; returns the settled handles."""
        handles = []
        for write, handle in self.landed:
            handles.append(handle)
            if not handle.ok:
                self.checker.fail(f"write of {write.key!r} was invalidated")
                continue
            self.model.commit(
                write.key, write.checksum, write.location, write.dependencies,
                write.metadata, write.size_bytes,
            )
            if measure:
                self.observe(write.key, handle.latency_s, handle.committed_at,
                             handle.commit_block)
        self.landed.clear()
        return handles

    def observe(self, what: str, latency_s: float, virtual_time: float,
                block: Optional[int] = None) -> None:
        self.anchor.add(what, virtual_time, block)
        self.latency_s += latency_s
        self.measured += 1


def _closed_loop(
    deployment: HyperProvDeployment,
    service: HyperProvService,
    session: ProvenanceSession,
    writes: Iterator[Write],
    book: _Book,
    call: Callable,
    measure: bool,
) -> int:
    """Keep :data:`SLOTS` submissions in flight in *virtual* time.

    One client call = advance to the moment the slot became free, submit,
    then — if that was the last free slot — run engine events until a
    commit lands.  Returns the number of writes issued.
    """
    engine = deployment.engine
    free = [engine.now + slot * SLOT_STAGGER_S for slot in range(SLOTS)]

    def turn(write: Write) -> None:
        free_at = heappop(free)
        if free_at > engine.now:
            engine.run(until=free_at)
        book.submit(_untimed, session, write)
        while not free and not book.landed:
            if not engine.run(max_events=1):
                service.drain()
                if not book.landed:
                    raise RuntimeError("closed loop stalled with every slot in flight")

    issued = 0
    for write in writes:
        call(turn, write)
        issued += 1
        for handle in book.settle(measure):
            heappush(free, handle.committed_at)
    return issued


def _final_checks(deployment: HyperProvDeployment, session: ProvenanceSession,
                  checker: Checker) -> None:
    checker.check_true(session.audit(), "audit() reported a broken or uneven chain")
    for shard in range(deployment.fabric.shard_count):
        heights = set(deployment.fabric.shard_ledger_heights(shard).values())
        checker.check_true(len(heights) == 1, f"peer ledger heights differ on shard {shard}")
    checker.check_true(deployment.fabric.in_flight() == 0, "handles still in flight")


def _session_result(ops: int, books: List[_Book], setup: Recorder, recorder: Recorder,
                    collections: int) -> PassResult:
    anchor = SimAnchor()
    for book in books:
        anchor.add(book.anchor.hexdigest(), 0.0)
    measured = sum(book.measured for book in books)
    return PassResult(
        ops=ops,
        failed=sum(book.checker.failed for book in books),
        setup_s=setup.reference_region_s,
        recorder=recorder,
        sim_latency_ms=sum(book.latency_s for book in books) / max(1, measured) * 1e3,
        sim_anchor=anchor.hexdigest(),
        gc_collections=collections,
        notes=[note for book in books for note in book.checker.notes],
    )


# ------------------------------------------------------------------ ingest
def run_ingest(seed: int, scale: float, tracer: Optional[Tracer] = None) -> PassResult:
    count = sized(INGEST_OPS, scale, 4 * CONFLICT_WINDOW)
    setup = Recorder()
    deployment, service = setup.background(_desktop, seed)
    session = service.session()
    setup.finish()

    book = _Book()
    recorder = Recorder()
    collections = _gc_collections()
    with _recording(tracer):
        ops = _closed_loop(
            deployment, service, session, ingest_ops(seed, count), book,
            recorder.call, measure=True,
        )
        recorder.background(service.drain)
    recorder.finish()
    book.settle()
    collections = _gc_collections() - collections
    _final_checks(deployment, session, book.checker)
    book.checker.check_true(
        book.measured == ops, f"{ops - book.measured} of {ops} submissions never committed"
    )
    return _session_result(ops, [book], setup, recorder, collections)


# ---------------------------------------------------------------- read_mix
def run_read_mix(seed: int, scale: float, tracer: Optional[Tracer] = None) -> PassResult:
    preload = sized(READ_MIX_PRELOAD_OPS, scale, 4 * CONFLICT_WINDOW)
    count = sized(READ_MIX_OPS, scale, 20)
    setup = Recorder()
    deployment, service = setup.background(_desktop, seed)
    session = service.session()
    book = _Book()
    _closed_loop(
        deployment, service, session, ingest_ops(seed, preload), book,
        setup.call, measure=False,
    )
    setup.background(service.drain)
    setup.finish()
    book.settle(measure=False)

    client = deployment.client
    model, checker = book.model, book.checker
    recorder = Recorder()
    call = recorder.call
    #: The synchronous caller's own virtual clock: the next read is issued
    #: when the previous answer arrived.
    now = deployment.engine.now
    ops = 0
    collections = _gc_collections()
    with _recording(tracer):
        for op in read_ops(seed, count, list(model.sorted_keys)):
            kind, key = op[0], op[1]
            ops += 1
            try:
                if kind == "get":
                    answer = call(session.get, key, at_time=now)
                    checker.check_get(key, answer)
                elif kind == "verify":
                    checksum = model.latest(key).checksum if op[2] else WRONG_CHECKSUM
                    answer = call(session.verify, key, checksum, at_time=now)
                    checker.check_verify(key, checksum, answer)
                elif kind == "history":
                    answer = call(session.history, key, at_time=now)
                    checker.check_history(key, answer)
                elif kind == "range":
                    answer = call(client.get_by_range, key, op[2], at_time=now)
                    checker.check_range(key, op[2], answer)
                else:
                    answer = call(
                        session.query, {"_prefix": key, "metadata.hot": True},
                        at_time=now, limit=QUERY_LIMIT,
                    )
                    checker.check_hot_query(key, QUERY_LIMIT, answer)
            except HyperProvError as error:
                checker.fail(f"{kind}({key!r}) raised {error!r}")
                continue
            book.observe(f"{kind}:{key}", answer.latency_s, answer.latency_s)
            now += answer.latency_s
    recorder.finish()
    collections = _gc_collections() - collections
    _final_checks(deployment, session, checker)
    return _session_result(ops, [book], setup, recorder, collections)


# -------------------------------------------------------------- tenant_mix
def tenant_pipeline() -> PipelineConfig:
    """Every middleware the client chain has, armed.

    ``retry_attempts=2`` puts the retry middleware in the chain; without
    faults it forwards each call exactly once, which is the tax measured.
    """
    return PipelineConfig(
        shards=4, cache=True, cache_capacity=256,
        indexes=("creator", "metadata.*"), continuous_queries=True,
        scheduler="fair-share", retry_attempts=2,
    )


def run_tenant_mix(seed: int, scale: float, tracer: Optional[Tracer] = None) -> PassResult:
    keys = tenant_keys(sized(TENANT_MIX_KEYS_PER_TENANT, scale, 32))
    count = sized(TENANT_MIX_OPS, scale, 2 * DRAIN_EVERY)
    setup = Recorder()
    deployment, service = setup.background(
        _desktop, seed, shards=4, scheduler="fair-share")
    sessions = [
        service.session(
            tenant=f"tenant-{index}", pipeline=tenant_pipeline(),
            max_in_flight=TENANT_MAX_IN_FLIGHT,
        )
        for index in range(TENANTS)
    ]
    books = [_Book() for _ in sessions]
    deliveries: List[List[Dict[str, Any]]] = [[] for _ in sessions]
    for session, events in zip(sessions, deliveries):
        session.subscribe({"metadata.hot": True}, callback=events.append)

    def drain(call: Callable, measure: bool) -> None:
        call(service.drain)
        for book in books:
            book.settle(measure)

    for index, (tenant, write) in enumerate(tenant_preload(seed, keys)):
        books[tenant].submit(setup.call, sessions[tenant], write)
        if (index + 1) % DRAIN_EVERY == 0:
            drain(setup.background, False)
    drain(setup.background, False)
    setup.finish()

    recorder = Recorder()
    call = recorder.call
    now = deployment.engine.now
    ops = 0
    collections = _gc_collections()
    with _recording(tracer):
        for op in tenant_ops(seed, count, keys):
            kind, tenant = op[0], op[1]
            session, book = sessions[tenant], books[tenant]
            checker = book.checker
            ops += 1
            answer = None
            try:
                if kind == "submit":
                    book.submit(call, session, op[2], at_time=now)
                elif kind == "get":
                    answer = call(session.get, op[2], at_time=now)
                    checker.check_get(op[2], answer)
                elif kind == "verify":
                    latest = book.model.latest(op[2])
                    checksum = latest.checksum if op[3] else WRONG_CHECKSUM
                    answer = call(session.verify, op[2], checksum, at_time=now)
                    checker.check_verify(op[2], checksum, answer)
                elif kind == "history":
                    answer = call(session.history, op[2], at_time=now)
                    checker.check_history(op[2], answer)
                else:
                    answer = call(
                        session.query, {"metadata.hot": True},
                        at_time=now, limit=TENANT_QUERY_LIMIT,
                    )
                    checker.check_hot_query("", TENANT_QUERY_LIMIT, answer)
            except HyperProvError as error:
                checker.fail(f"{kind} by tenant {tenant} raised {error!r}")
            if answer is not None:
                book.observe(f"{kind}:{op[2]}", answer.latency_s, answer.latency_s)
                now += answer.latency_s
            if ops % DRAIN_EVERY == 0:
                drain(recorder.background, True)
                now = max(now, deployment.engine.now)
        drain(recorder.background, True)
    recorder.finish()
    collections = _gc_collections() - collections

    for book, events in zip(books, deliveries):
        book.checker.check_deliveries(events)
    _final_checks(deployment, sessions[0], books[0].checker)
    return _session_result(ops, books, setup, recorder, collections)


# ------------------------------------------------------------------- fleet
def run_fleet(seed: int, scale: float, tracer: Optional[Tracer] = None) -> PassResult:
    """The ``bench fleet`` shape, parallel executor first, then one engine.

    The traced pass skips the parallel run: forked workers would record
    spans nobody collects.
    """
    spec = fleet_spec(
        devices=sized(FLEET_DEVICES, scale, 8), shards=FLEET_SHARDS,
        duration_s=FLEET_DURATION_S, seed=seed,
    )
    recorder = Recorder()
    parallel = None
    if tracer is None:
        # Before the sequential build: the workers fork from a clean heap.
        parallel = recorder.background(
            run_fleet_parallel, spec, workers=min(2, os.cpu_count() or 1)
        )

    setup = Recorder()
    deployment = setup.background(build_fleet, spec)
    submitted = setup.background(submit_fleet, deployment)
    setup.finish()

    engine = deployment.engine
    collections = _gc_collections()
    with _recording(tracer):
        while recorder.call(engine.run, max_events=FLEET_EVENTS_PER_CALL):
            pass
        recorder.background(deployment.drain)
    recorder.finish()
    collections = _gc_collections() - collections

    checker = Checker(ReferenceModel())
    lines = {site: commit_log_lines(deployment, site) for site in deployment.sites}
    anchor = commit_anchor(lines)
    committed = latency_s = 0.0
    for site in deployment.sites:
        counts = commit_counts(deployment, site)
        checker.check_true(counts["pending"] == 0, f"site {site}: {counts['pending']} posts pending")
        checker.check_true(counts["failed"] == 0, f"site {site}: {counts['failed']} posts invalid")
        for _, handle in deployment.handles[site]:
            if handle.is_complete and handle.is_valid:
                committed += 1
                latency_s += handle.latency_s
    checker.check_true(committed == submitted, f"{submitted - committed:.0f} posts did not commit")
    ops = submitted
    # The parallel run is long enough to be a segment of its own: the first.
    parallel_s = recorder.reference_background_s(0) if parallel is not None else 0.0
    extras = {"sequential_wall_s": recorder.reference_region_s - parallel_s}
    if parallel is not None:
        ops += parallel.submitted
        checker.check_true(
            parallel.anchor == anchor,
            f"parallel anchor {parallel.anchor[:12]} != sequential {anchor[:12]}",
        )
        checker.check_true(parallel.pending == 0, "parallel executor left posts pending")
        checker.check_true(parallel.committed == submitted, "parallel executor lost posts")
        busy = sum(stats.busy_wall_s for stats in parallel.shard_stats)
        stall = sum(stats.barrier_stall_s for stats in parallel.shard_stats)
        extras.update(
            parallel_wall_s=parallel_s,
            parallel_workers=float(parallel.workers),
            parallel_stall_share=stall / (busy + stall) if busy + stall else 0.0,
        )
    return PassResult(
        ops=ops,
        failed=checker.failed,
        setup_s=setup.reference_region_s,
        recorder=recorder,
        sim_latency_ms=latency_s / max(1.0, committed) * 1e3,
        sim_anchor=anchor,
        gc_collections=collections,
        notes=checker.notes,
        extras=extras,
    )


WORKLOADS: Dict[str, Callable[[int, float, Optional[Tracer]], PassResult]] = {
    "ingest": run_ingest,
    "read_mix": run_read_mix,
    "tenant_mix": run_tenant_mix,
    "fleet": run_fleet,
}
