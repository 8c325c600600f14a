"""The paper's evaluation: one table of experiments and one table of claims.

Every table ``python -m repro.bench`` prints is an :class:`Experiment` row
of :data:`EXPERIMENTS` — a title, its columns and one function ``(requests,
seed) -> rows``, a row being a dict of raw values — drawn by :func:`render`
and exported as CSV by :mod:`repro.bench.export`.  A key ``command/part``
is a further table of the CLI's ``command`` (``ops/stages``); tables that
share one function are measured once by :func:`measure`.

:data:`PAPER_CLAIMS` is what the reproduction is held to; each table
prints its claims under it as ``claim:`` lines and tier-1 holds every row.
The gates (``fleet``, ``query``, ``chaos``) fail the command on a
committed anchor or a same-run ratio, which a row cannot express.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.api.protocol import StoreRequest
from repro.api.service import HyperProvService
from repro.baselines.centraldb import CentralProvenanceDatabase
from repro.baselines.provchain import PowProvenanceChain
from repro.bench.reporting import ResultTable, format_bytes, format_seconds
from repro.bench.runner import RunConfig, StoreDataRunner
from repro.bench.sweeps import (
    BENCH_BATCH_TIMEOUT_S,
    COLUMNS,
    KIB,
    SWEEPS,
    Row,
    Sweep,
    run_sweep,
)
from repro.consensus.batching import BatchConfig
from repro.core.topology import (
    HyperProvDeployment,
    build_desktop_deployment,
    build_rpi_deployment,
)
from repro.devices.model import DeviceModel
from repro.devices.profiles import RASPBERRY_PI_3B_PLUS, XEON_E5_1603
from repro.energy.meter import PowerMeter
from repro.energy.power import PowerModel
from repro.middleware.config import PipelineConfig
from repro.middleware.metrics import STAGES
from repro.simulation.randomness import DeterministicRandom
from repro.workloads.arrivals import sample_poisson_times
from repro.workloads.payloads import PayloadGenerator
from repro.workloads.scenarios import SkewedTenantWorkload

#: A table column: header, row key and the formatter of its cell.
Column = Tuple[str, str, Callable[[Any], object]]
_round2 = partial(round, ndigits=2)


@dataclass(frozen=True)
class Experiment:
    """One printed table: what it shows and the function that measures it."""

    #: ``str.format`` template over the first row.
    title: str
    columns: Sequence[Column]
    #: ``(requests, seed) -> rows``; of those the table keeps the rows that
    #: carry every one of its columns.
    rows: Callable[[int, int], List[Row]]
    #: The note under the table, from its rows.
    note: Optional[Callable[[List[Row]], str]] = None


def _sweep_note(template: str, rows: List[Row]) -> str:
    first, last = rows[0]["throughput_tps"], rows[-1]["throughput_tps"]
    return template.format(last=rows[-1]["value"],
                           speedup=last / first if first > 0 else float("nan"))


def sweep_experiment(sweep: Sweep) -> Experiment:
    """A :data:`SWEEPS` row as a table: its axis column, then its columns."""
    return Experiment(
        title=sweep.title,
        columns=[(sweep.axis, "value", sweep.cell),
                 *((header, *COLUMNS[header]) for header in sweep.columns)],
        rows=partial(run_sweep, sweep),
        note=partial(_sweep_note, sweep.note) if sweep.note else None,
    )


# ------------------------------------------------------------------- fig3
#: The paper's measurement interval (10 minutes).
INTERVAL_S = 600.0
#: Fig. 3's intervals: label → StoreData arrivals per second of 1 KiB
#: payloads on the RPi that hosts both peer and client; ``None`` is a bare
#: RPi with no HLF containers.
LOAD_LEVELS: Dict[str, Optional[float]] = {
    "idle (no HLF)": None,
    "idle (HLF running)": 0.0,
    "low load": 0.5,
    "medium load": 2.0,
    "peak load": 5.0,
}


def _metered_device(label: str, rate_per_s: Optional[float], seed: int) -> DeviceModel:
    """The device Fig. 3 meters, after one interval at ``rate_per_s``."""
    if rate_per_s is None:
        return DeviceModel(name="rpi-idle", profile=RASPBERRY_PI_3B_PLUS,
                           rng=DeterministicRandom(7), hlf_running=False)
    deployment = build_rpi_deployment(seed=seed)
    store = deployment.client.as_store()
    if rate_per_s > 0.0:
        generator = PayloadGenerator(size_bytes=KIB, seed=seed, prefix=f"energy/{label}")
        # Submissions run as engine events so device time is charged at the
        # arrival instants, not retroactively after the interval.
        for arrival in sample_poisson_times(DeterministicRandom(seed), rate_per_s, INTERVAL_S):
            item = generator.next_item()
            deployment.engine.schedule_at(
                arrival,
                lambda item=item: store.submit(StoreRequest(key=item.key, data=item.data)),
                label="energy:store_data",
            )
        deployment.drain()
    # Ensure the virtual clock covers the whole interval even when idle.
    deployment.engine.run(until=INTERVAL_S)
    return deployment.client_device


def energy_rows(requests: int, seed: int) -> List[Row]:
    """Fig. 3: RPi power per 10-minute interval, by load (``requests`` unused)."""
    rows = []
    for label, rate in LOAD_LEVELS.items():
        meter = PowerMeter(PowerModel(_metered_device(label, rate, seed)), sample_interval_s=10.0)
        report = meter.measure_interval(0.0, INTERVAL_S, label=label)
        rows.append({
            "interval": label,
            "mean_watts": report.mean_watts,
            "max_watts": report.max_watts,
            "min_watts": report.min_watts,
            "energy_wh": report.energy_wh,
        })
    return rows


# -------------------------------------------------------------------- ops
def _time_operators(
    deployment: HyperProvDeployment, repeats: int, seed: int
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Mean latency per client operator and per write-path stage."""
    client = deployment.client
    store = client.as_store()
    generator = PayloadGenerator(size_bytes=KIB, seed=seed, prefix="ops")
    latencies: Dict[str, List[float]] = {
        "post": [], "store_data": [], "get": [], "get_key_history": [],
        "check_hash": [], "get_data": [], "get_dependencies": [],
    }
    items = [generator.next_item() for _ in range(repeats)]
    # Write path: store_data (off-chain + on-chain) measured end to end.
    for item in items:
        start = deployment.engine.now
        post = store.submit(StoreRequest(key=item.key, data=item.data))
        deployment.drain()
        if post.done and post.ok:
            latencies["store_data"].append(post.committed_at - start)
    # Metadata-only post (data already stored elsewhere).
    for index, item in enumerate(items):
        start = deployment.engine.now
        post = store.submit(StoreRequest(
            key=f"ops/meta-{index}",
            checksum=item.checksum,
            location=f"file://preexisting/{index}",
            size_bytes=item.size_bytes,
        ))
        deployment.drain()
        if post.done and post.ok:
            latencies["post"].append(post.committed_at - start)
    # Read path.
    for item in items:
        latencies["get"].append(store.get(item.key).latency_s)
        latencies["get_key_history"].append(store.history(item.key).latency_s)
        latencies["check_hash"].append(store.verify(item.key, item.data).latency_s)
        latencies["get_dependencies"].append(client.get_dependencies(item.key).latency_s)
        latencies["get_data"].append(client.get_data(item.key).latency_s)
    means = {op: sum(values) / len(values) if values else float("nan")
             for op, values in latencies.items()}
    stages = {}
    for stage, metric in STAGES.items():
        histogram = client.metrics.get_histogram(metric)
        if histogram is not None and histogram.count:
            stages[stage] = histogram.mean
    return means, stages


def ops_rows(requests: int, seed: int) -> List[Row]:
    """Mean latency of each client operator (1 KiB payloads), then of each
    write-path stage, per setup: the rows of ``ops`` and ``ops/stages``."""
    deployments = (build(seed=seed) for build in (build_desktop_deployment, build_rpi_deployment))
    setups = {deployment.spec.name: _time_operators(deployment, max(2, requests // 10), seed)
              for deployment in deployments}
    operators = sorted(next(iter(setups.values()))[0])
    return [
        *({"operator": op, **{name: means[op] for name, (means, _) in setups.items()}}
          for op in operators),
        *({"stage": stage,
           **{name: stages.get(stage, float("nan")) for name, (_, stages) in setups.items()}}
          for stage in STAGES),
    ]


# -------------------------------------------------------------- baselines
#: Proof-of-work difficulty of the ProvChain-style baseline.
POW_DIFFICULTY_BITS = 22


def _one_by_one(system: str, device: DeviceModel, store: Any, prefix: str,
                tamper_evident: bool, requests: int, seed: int) -> Row:
    """A baseline storing one record after another, metered on ``device``."""
    generator = PayloadGenerator(size_bytes=KIB, seed=seed, prefix=prefix)
    cursor = 0.0
    latencies = []
    for item in generator.items(requests):
        outcome = store.submit(StoreRequest(key=item.key, data=item.data), at_time=cursor)
        latencies.append(outcome.latency_s)
        cursor = outcome.committed_at
    makespan = max(cursor, 1e-9)
    return {
        "system": system,
        "throughput_tps": requests / makespan,
        "mean_latency_s": sum(latencies) / len(latencies),
        "mean_power_w": PowerModel(device).power_over((0.0, makespan)).watts,
        "tamper_evident": tamper_evident,
    }


def baseline_rows(requests: int, seed: int) -> List[Row]:
    """The same 1 KiB workload through HyperProv on RPis, a PoW chain and a central DB."""
    deployment = build_rpi_deployment(seed=seed)
    result = StoreDataRunner(deployment).run(
        RunConfig(data_size_bytes=KIB, request_count=requests, seed=seed)
    )
    window = (0.0, max(1.0, deployment.engine.now))
    rows = [{
        "system": "hyperprov",
        "throughput_tps": result["throughput_tps"],
        "mean_latency_s": result["mean_response_s"],
        "mean_power_w": PowerModel(deployment.client_device).power_over(window).watts,
        "tamper_evident": True,
    }]
    miner = DeviceModel("rpi-miner", RASPBERRY_PI_3B_PLUS, rng=DeterministicRandom(seed))
    chain = PowProvenanceChain(miner, difficulty_bits=POW_DIFFICULTY_BITS,
                               rng=DeterministicRandom(seed))
    rows.append(_one_by_one("provchain-pow", miner, chain.as_store(), "pow", True,
                            requests, seed))
    server = DeviceModel("db-server", XEON_E5_1603, rng=DeterministicRandom(seed))
    database = CentralProvenanceDatabase(server_device=server)
    rows.append(_one_by_one("central-db", server, database.as_store(), "central", False,
                            requests, seed))
    return rows


# -------------------------------------------------------------- resources
def _role_of(deployment: HyperProvDeployment, node: str) -> str:
    client_host = deployment.fabric.client_context("hyperprov-client").host_node
    if node in {peer.name for peer in deployment.peers}:
        return "peer+client" if node == client_host else "peer"
    if node == deployment.fabric.orderer_node:
        return "orderer"
    if node == deployment.storage_backend.storage_node:
        return "storage"
    return "client"


def resource_rows(
    build: Callable[..., HyperProvDeployment], requests: int, seed: int
) -> List[Row]:
    """Per-node CPU, disk and traffic of 256 KiB StoreData posts on one setup."""
    deployment = build(seed=seed)
    result = StoreDataRunner(deployment).run(
        RunConfig(data_size_bytes=256 * KIB, request_count=requests, seed=seed)
    )
    window = (0.0, max(deployment.engine.now, 1e-9))
    return [
        {
            "setup": deployment.spec.name,
            "throughput_tps": result["throughput_tps"],
            "node": node,
            "role": _role_of(deployment, node),
            "cpu_utilization": device.utilization(window, "cpu"),
            "disk_utilization": device.utilization(window, "disk"),
            "bytes_sent": deployment.network.bytes_sent_by(node),
            "cpu_core_seconds": device.busy_time(window=window, component="cpu"),
        }
        for node, device in sorted(deployment.devices.items())
    ]


# ----------------------------------------------------------------- cache
#: Keys of the cache ablation's working set, and the rounds of ``get`` over it.
CACHE_KEYS, CACHE_ROUNDS = 8, 5


def cache_rows(requests: int, seed: int) -> List[Row]:
    """Repeated ``get`` over a stored working set, read cache off then on
    (``requests`` unused).

    A commit against one key between the last two rounds puts the
    commit-event invalidation path inside the measurement.
    """
    rows = []
    for label, cache in (("cache-off", False), ("cache-on", True)):
        deployment = build_desktop_deployment(seed=seed)
        client = deployment.client
        client.configure_pipeline(PipelineConfig(cache=cache))
        store = client.as_store()
        generator = PayloadGenerator(size_bytes=KIB, seed=seed, prefix="cache")
        items = [generator.next_item() for _ in range(CACHE_KEYS)]
        for item in items:
            store.submit(StoreRequest(key=item.key, data=item.data))
            deployment.drain()
        latencies = []
        for round_index in range(CACHE_ROUNDS):
            latencies.extend(store.get(item.key).latency_s for item in items)
            if round_index == CACHE_ROUNDS - 2:
                store.submit(StoreRequest(key=items[0].key, data=items[0].data + b"!"))
                deployment.drain()
        hits = client.metrics.get_counter("cache.hits")
        misses = client.metrics.get_counter("cache.misses")
        rows.append({
            "pipeline": label,
            "reads": len(latencies),
            "mean_get_s": sum(latencies) / len(latencies),
            "cache_hits": int(hits.value) if hits else 0,
            "cache_misses": int(misses.value) if misses else 0,
        })
    return rows


# -------------------------------------------------------------- fairness
#: The heavy tenant's load relative to the light tenant's.
FAIRNESS_SKEW = 10


def fairness_rows(requests: int, seed: int) -> List[Row]:
    """The light tenant's p95 under a heavy tenant's burst, FIFO vs fair-share.

    The heavy tenant submits ``FAIRNESS_SKEW``x the light tenant's load
    1 ms apart while the light tenant trickles one request every 50 ms, so
    a backlog forms at the orderer and the intake policy decides who waits.
    """
    light_requests = max(6, min(requests // 2, 20))

    def run(scheduler: str, only_light: bool = False) -> Dict[str, Any]:
        deployment = build_desktop_deployment(
            seed=seed,
            scheduler=scheduler,
            orderer_intake_interval_s=0.01,
            batch_config=BatchConfig(batch_timeout_s=BENCH_BATCH_TIMEOUT_S),
        )
        return SkewedTenantWorkload(
            HyperProvService(deployment),
            light_requests=light_requests,
            skew=FAIRNESS_SKEW,
            light_interval_s=0.05,
            heavy_interval_s=0.001,
        ).run(only_light=only_light)

    solo = run("fifo", only_light=True)["light"]
    rows = [{"scheduler": "(light solo)", "light_p95_s": solo.p95_response_s,
             "slowdown": 1.0, "heavy_p95_s": None, "light_committed": solo.committed}]
    for scheduler in ("fifo", "fair-share"):
        tenants = run(scheduler)
        light = tenants["light"]
        rows.append({
            "scheduler": scheduler,
            "light_p95_s": light.p95_response_s,
            "slowdown": light.p95_response_s / solo.p95_response_s,
            "heavy_p95_s": tenants["heavy"].p95_response_s,
            "light_committed": light.committed,
        })
    return rows


# ------------------------------------------------------------ the tables
def _setup_columns(first: str) -> List[Column]:
    return [(first, first, str), ("desktop", "desktop", format_seconds),
            ("rpi", "rpi", format_seconds)]


_RESOURCE_TABLE = Experiment(
    title="Resource consumption — {setup} setup ({throughput_tps:.1f} tx/s sustained)",
    columns=[
        ("node", "node", str),
        ("role", "role", str),
        ("cpu util", "cpu_utilization", lambda share: f"{share * 100:.1f}%"),
        ("disk util", "disk_utilization", lambda share: f"{share * 100:.1f}%"),
        ("bytes sent", "bytes_sent", format_bytes),
    ],
    rows=partial(resource_rows, build_desktop_deployment),
)

#: Every table the CLI prints, in the order a command prints its parts.
EXPERIMENTS: Dict[str, Experiment] = {
    **{name: sweep_experiment(sweep) for name, sweep in SWEEPS.items()},
    "ablation-sharding/fairness": Experiment(
        title=(f"Ablation — tenant isolation under {FAIRNESS_SKEW}x skew "
               "(burst-loaded orderer, light tenant vs heavy tenant)"),
        columns=[
            ("scheduler", "scheduler", str),
            ("light p95", "light_p95_s", format_seconds),
            ("light slowdown vs solo", "slowdown", lambda factor: f"{factor:.2f}x"),
            ("heavy p95", "heavy_p95_s",
             lambda p95: "-" if p95 is None else format_seconds(p95)),
            ("light committed", "light_committed", str),
        ],
        rows=fairness_rows,
        note=lambda rows: ("fair-share = round robin over per-tenant intake queues; "
                           "FIFO serves the heavy tenant's backlog first"),
    ),
    "fig3": Experiment(
        title="Fig. 3 — RPi energy consumption, 10-minute intervals",
        columns=[
            ("interval", "interval", str),
            ("mean power (W)", "mean_watts", _round2),
            ("max power (W)", "max_watts", _round2),
            ("energy (Wh)", "energy_wh", partial(round, ndigits=3)),
        ],
        rows=energy_rows,
    ),
    "ops": Experiment(
        title="Client operator latencies (1 KiB payloads)",
        columns=_setup_columns("operator"),
        rows=ops_rows,
    ),
    "ops/stages": Experiment(
        title="Write-path latency breakdown by pipeline stage",
        columns=_setup_columns("stage"),
        rows=ops_rows,
        note=lambda rows: ("endorse = proposal round trip; order = envelope transfer + "
                           "queueing; commit = block cut, delivery, validation and "
                           "commit notify"),
    ),
    "baselines": Experiment(
        title="Baseline comparison — 1 KiB provenance records on RPi-class hardware",
        columns=[
            ("system", "system", str),
            ("throughput (tx/s)", "throughput_tps", _round2),
            ("mean latency", "mean_latency_s", format_seconds),
            ("mean power (W)", "mean_power_w", _round2),
            ("tamper evident", "tamper_evident", lambda evident: "yes" if evident else "no"),
        ],
        rows=baseline_rows,
    ),
    "resources/desktop": _RESOURCE_TABLE,
    "resources/rpi": replace(_RESOURCE_TABLE, rows=partial(resource_rows, build_rpi_deployment)),
    "ablation-cache": Experiment(
        title="Read-cache ablation — repeated get() over a hot working set",
        columns=[
            ("pipeline", "pipeline", str),
            ("reads", "reads", str),
            ("mean get", "mean_get_s", format_seconds),
            ("cache hits", "cache_hits", str),
            ("cache misses", "cache_misses", str),
        ],
        rows=cache_rows,
        note=lambda rows: f"repeated-read speedup from the cache: {_cache_speedup(rows):.1f}x",
    ),
}


def command_of(key: str) -> str:
    """The CLI experiment that prints table ``key``."""
    return key.split("/")[0]


def measure(tables: Mapping[str, Experiment], keys: Iterable[str], requests: int,
            seed: int) -> Dict[str, List[Row]]:
    """The rows of each table in ``keys`` that carry all of its columns;
    tables sharing a function (``ops``, ``ops/stages``) run it once."""
    runs: Dict[Callable[[int, int], List[Row]], List[Row]] = {}
    measured: Dict[str, List[Row]] = {}
    for key in keys:
        table = tables[key]
        if table.rows not in runs:
            runs[table.rows] = table.rows(requests, seed)
        fields = {field for _, field, _ in table.columns}
        measured[key] = [row for row in runs[table.rows] if fields <= row.keys()]
    return measured


# ------------------------------------------------------------ the claims
NOT_OFFLINE = "not available offline"
#: The ``--requests`` every claim holds at (the CLI's default).
CLAIMS_LOAD = 20
#: Where the paper's numbers are quoted in this repo.
PROFILES = "src/repro/devices/profiles.py"
_OPERATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Claim:
    """One number the reproduction is held to."""

    #: The tables whose rows ``quantity`` takes, in argument order; the
    #: claim prints under the first one.
    experiments: Tuple[str, ...]
    name: str
    quantity: Callable[..., float]
    #: ``(operator, bound)`` pairs the value must meet: ``((">", 0.02), ("<", 0.35))``.
    tolerance: Tuple[Tuple[str, float], ...]
    paper: str = NOT_OFFLINE
    #: The file the paper value came from.
    source: str = ""
    #: ``calibration`` (a model input set from the paper) or ``prediction``.
    kind: str = "prediction"

    def holds(self, value: float) -> bool:
        return all(_OPERATORS[op](value, bound) for op, bound in self.tolerance)

    def line(self, measured: Mapping[str, List[Row]], requests: int) -> str:
        """The ``claim:`` line printed under a table measured at ``requests``."""
        paper = f"{self.paper} ({self.source})" if self.source else self.paper
        head = f"claim: [{self.kind}] {self.name}: paper {paper}"
        try:
            value = self.quantity(*(measured[key] for key in self.experiments))
        except (KeyError, ValueError, ZeroDivisionError):
            # The run left out a table (fig2 alone) or a row (``--shards 1``).
            return f"{head}; simulated n/a (needs the rows of {' and '.join(self.experiments)})"
        verdict = "within" if self.holds(value) else "outside"
        tolerance = ", ".join(f"{op} {bound:g}" for op, bound in self.tolerance)
        return (f"{head}; simulated {value:.4g} at --requests {requests}, {verdict} "
                f"{tolerance} (held at --requests {CLAIMS_LOAD})")


def _by(rows: Sequence[Row], key: str = "value") -> Dict[Any, Row]:
    return {row[key]: row for row in rows}


def _ratio(field: str, top: Any, bottom: Any, key: str = "value") -> Callable[[List[Row]], float]:
    """``field`` of the row whose ``key`` is ``top`` over the same of ``bottom``."""
    return lambda rows: _by(rows, key)[top][field] / _by(rows, key)[bottom][field]


def _steps(field: str, worst: Callable[..., float]) -> Callable[[List[Row]], float]:
    """The ``worst`` ratio of ``field`` between one axis value and the previous."""
    return lambda rows: worst(b[field] / a[field] for a, b in zip(rows, rows[1:]))


def _uncommitted(rows: List[Row]) -> float:
    return sum(row["requests"] - row["committed"] for row in rows)


def _cache_speedup(rows: List[Row]) -> float:
    on = _by(rows, "pipeline")["cache-on"]["mean_get_s"]
    return _by(rows, "pipeline")["cache-off"]["mean_get_s"] / on if on else float("nan")


def _watts(interval: str, field: str = "mean_watts") -> Callable[[List[Row]], float]:
    return lambda rows: _by(rows, "interval")[interval][field]


def _slower_setup(top: str, bottom: str) -> Callable[[List[Row]], float]:
    """The higher, over both setups, of operator ``top``'s latency over ``bottom``'s."""
    return lambda rows: max(_ratio(setup, top, bottom, "operator")(rows)
                            for setup in ("desktop", "rpi"))


def _busiest_peer_cpu(rows: List[Row]) -> float:
    return max(row["cpu_core_seconds"] for row in rows if "peer" in row["role"])


def _co_host_share(field: str, among: Callable[[Row], bool]) -> Callable[..., float]:
    """The client's co-host's ``field`` over the most of any row ``among``, lower setup."""
    def share(rows: List[Row]) -> float:
        co_host = next(row for row in rows if row["role"] == "peer+client")
        return co_host[field] / max(row[field] for row in rows if among(row))
    return lambda *setups: min(share(rows) for rows in setups)


_4MIB, _1KIB = 4096 * KIB, KIB
_SETUPS = ("resources/rpi", "resources/desktop")

PAPER_CLAIMS: Tuple[Claim, ...] = (
    *(Claim((name,), "requests not committed", _uncommitted, (("==", 0),)) for name in SWEEPS),
    # Fig. 1 / Fig. 2: "increasing the size of data items impacts both
    # throughput and response times, when off-chain storage is involved",
    # and the RPi shows the "similar trend ... however absolute
    # performance for RPi is lower than desktop machines as expected".
    Claim(("fig1",), "4 MiB over 1 KiB throughput",
          _ratio("throughput_tps", _4MIB, _1KIB), (("<", 0.8),)),
    Claim(("fig1",), "4 MiB over 1 KiB mean response",
          _ratio("mean_response_s", _4MIB, _1KIB), ((">", 1.2),)),
    Claim(("fig1",), "largest throughput rise from one size to the next",
          _steps("throughput_tps", max), (("<=", 1.05),)),
    Claim(("fig1",), "largest mean-response fall from one size to the next",
          _steps("mean_response_s", min), ((">=", 0.95),)),
    Claim(("fig2",), "4 MiB over 1 KiB throughput",
          _ratio("throughput_tps", _4MIB, _1KIB), (("<", 1),)),
    Claim(("fig2",), "4 MiB over 1 KiB mean response",
          _ratio("mean_response_s", _4MIB, _1KIB), ((">", 1),)),
    Claim(("fig2", "fig1"), "lowest desktop-over-RPi throughput at one size",
          lambda rpi, desktop: min(d["throughput_tps"] / r["throughput_tps"]
                                   for r, d in zip(rpi, desktop)), ((">", 3),)),
    Claim(("fig2", "fig1"), "lowest RPi-over-desktop mean response at one size",
          lambda rpi, desktop: min(r["mean_response_s"] / d["mean_response_s"]
                                   for r, d in zip(rpi, desktop)), ((">", 1),)),
    # Fig. 3: HyperProv idling "barely consumes any power (2.71 W)", peak
    # load is ~10.7 % above idle on average, and the maximum is 3.64 W.
    Claim(("fig3",), "idle with HLF, mean power (W)", _watts("idle (HLF running)"),
          ((">=", 2.61), ("<=", 2.81)), paper="2.71 W", source=PROFILES, kind="calibration"),
    Claim(("fig3",), "HLF idle draw over a bare RPi (W)",
          lambda rows: _watts("idle (HLF running)")(rows) - _watts("idle (no HLF)")(rows),
          (("<", 0.2),), kind="calibration"),
    Claim(("fig3",), "peak-load mean power increase over a bare idle RPi (fraction)",
          lambda rows: _ratio("mean_watts", "peak load", "idle (no HLF)", "interval")(rows) - 1,
          ((">", 0.02), ("<", 0.35)), paper="0.107 (~10.7 %)", source=PROFILES),
    Claim(("fig3",), "peak-load mean power over idle with HLF",
          _ratio("mean_watts", "peak load", "idle (HLF running)", "interval"), (("<", 1.35),)),
    Claim(("fig3",), "peak-load maximum power (W)", _watts("peak load", "max_watts"),
          (("<", 3.9),), paper="3.64 W", source=PROFILES),
    Claim(("fig3",), "smallest mean-power rise from one load level to the next (W)",
          lambda rows: min(b["mean_watts"] - a["mean_watts"] for a, b in zip(rows, rows[1:])),
          ((">=", 0),)),
    # Operators: the RPi is slower everywhere; a read (one peer, no
    # ordering) is cheaper than a write (endorse + order + commit).
    Claim(("ops",), "lowest RPi-over-desktop latency of one operator",
          lambda rows: min(row["rpi"] / row["desktop"] for row in rows), ((">", 1),)),
    Claim(("ops",), "lowest desktop operator latency (s)",
          lambda rows: min(row["desktop"] for row in rows), ((">", 0),)),
    Claim(("ops",), "highest get-over-post latency of one setup",
          _slower_setup("get", "post"), (("<", 1),)),
    Claim(("ops",), "highest check_hash-over-store_data latency of one setup",
          _slower_setup("check_hash", "store_data"), (("<", 1),)),
    Claim(("ops/stages",), "lowest endorse, order or commit latency of one setup (s)",
          lambda rows: min(min(row["desktop"], row["rpi"]) for row in rows), ((">", 0),)),
    # Baselines: a permissioned chain "has much less resource requirements
    # compared to public blockchains" yet is tamper evident, which a
    # central database is not.
    Claim(("baselines",), "HyperProv over PoW-chain throughput",
          _ratio("throughput_tps", "hyperprov", "provchain-pow", "system"), ((">", 3),)),
    Claim(("baselines",), "HyperProv over PoW-chain mean power",
          _ratio("mean_power_w", "hyperprov", "provchain-pow", "system"), (("<", 1),)),
    Claim(("baselines",), "central-DB over HyperProv throughput",
          _ratio("throughput_tps", "central-db", "hyperprov", "system"), ((">", 1),)),
    Claim(("baselines",), "systems whose tamper evidence is not the paper's (all but the DB)",
          lambda rows: sum(row["tamper_evident"] != (row["system"] != "central-db")
                           for row in rows), (("==", 0),)),
    # Resources: the desktop sustains far more, each transaction costs the
    # RPi peers far more CPU, and the peer co-hosting the client is busiest.
    Claim(_SETUPS, "desktop over RPi sustained throughput",
          lambda rpi, desktop: desktop[0]["throughput_tps"] / rpi[0]["throughput_tps"],
          ((">", 3),)),
    Claim(_SETUPS, "RPi over desktop CPU seconds of the busiest peer",
          lambda rpi, desktop: _busiest_peer_cpu(rpi) / _busiest_peer_cpu(desktop), ((">", 3),)),
    Claim(_SETUPS, "client co-host over the busiest other peer, CPU seconds, lower setup",
          _co_host_share("cpu_core_seconds", lambda row: row["role"] == "peer"), ((">=", 1),)),
    Claim(_SETUPS, "client co-host over the most any node sent, bytes, lower setup",
          _co_host_share("bytes_sent", lambda row: True), ((">=", 1),)),
    Claim(_SETUPS, "node roles of peer, peer+client, orderer and storage missing from a setup",
          lambda *setups: sum(len({"peer", "peer+client", "orderer", "storage"}
                                  - {row["role"] for row in rows}) for rows in setups),
          (("==", 0),)),
    # Ablations.
    Claim(("ablation-batch",), "lowest throughput over the 1-message block's",
          lambda rows: min(row["throughput_tps"] for row in rows) / rows[0]["throughput_tps"],
          ((">", 0.6),)),
    Claim(("ablation-batch",), "highest mean response under the 2 s batch timeout (s)",
          lambda rows: max(row["mean_response_s"] for row in rows), (("<", 2),)),
    Claim(("ablation-batch",), "100-message over 50-message block mean response",
          _ratio("mean_response_s", 100, 50), ((">", 1.5),)),
    Claim(("ablation-concurrency",), "depth 2 over depth 1 throughput",
          _ratio("throughput_tps", 2, 1), ((">", 1),)),
    Claim(("ablation-concurrency",), "depth 16 over depth 1 throughput",
          _ratio("throughput_tps", 16, 1), ((">", 2),)),
    Claim(("ablation-consensus",), "Raft over Solo throughput",
          _ratio("throughput_tps", "raft", "solo"), ((">", 0.1),)),
    Claim(("ablation-fastfabric",), "parallel over sequential validation throughput",
          _ratio("throughput_tps", "parallel", "sequential"), ((">=", 0.98),)),
    Claim(("ablation-sharding",), "2-shard over 1-shard throughput",
          _ratio("throughput_tps", 2, 1), ((">", 1.2),)),
    Claim(("ablation-sharding/fairness",), "light-tenant p95 slowdown, FIFO over fair-share",
          _ratio("slowdown", "fifo", "fair-share", "scheduler"), ((">", 1.25),)),
    Claim(("ablation-sharding/fairness",), "light-tenant p95 slowdown under fair-share",
          lambda rows: _by(rows, "scheduler")["fair-share"]["slowdown"], (("<", 2.5),)),
    Claim(("ablation-cache",), "repeated-get speedup, cache off over on", _cache_speedup,
          ((">", 4),)),
    Claim(("ablation-cache",), "cache hits with the cache on",
          lambda rows: _by(rows, "pipeline")["cache-on"]["cache_hits"], ((">=", 1),)),
    Claim(("ablation-cache",), "cache hits with the cache off",
          lambda rows: _by(rows, "pipeline")["cache-off"]["cache_hits"], (("==", 0),)),
)


def render(key: str, measured: Mapping[str, List[Row]], requests: int,
           experiments: Mapping[str, Experiment] = EXPERIMENTS) -> str:
    """Table ``key`` drawn from its measured rows, with its claims under it."""
    experiment, rows = experiments[key], measured[key]
    table = ResultTable(experiment.title.format(**rows[0]),
                        [header for header, _, _ in experiment.columns])
    for row in rows:
        table.add_row(*(cell(row[field]) for _, field, cell in experiment.columns))
    if experiment.note is not None:
        table.add_note(experiment.note(rows))
    claims = [claim.line(measured, requests) for claim in PAPER_CLAIMS
              if claim.experiments[0] == key]
    return "\n".join([table.render(), *claims])
