"""Probes: which public callables of ``repro`` the traced pass wraps.

The benchmark observes the layers from outside: :class:`installed`
patches the callables below on entry (class attributes, plus every
``repro.*`` module global that *is* one of the wrapped module functions)
and restores every one of them on exit.  Nothing under ``src/`` knows it
is being measured.

Naming: ``<layer>.<callable>``, where the layer is the ``repro``
sub-package.  ``api.*`` probes are the client-facing calls and report a
median (``.p50_us``) and self time per operation; every other probe
reports calls and self time per operation.  :data:`PER_LAYER_UNITS` is
the complete catalogue (120 metrics) in reporting order.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Tuple

from repro.api.service import HyperProvService, ProvenanceSession
from repro.chaincode.hyperprov import HyperProvChaincode
from repro.common import hashing, serialization
from repro.common.events import EventBus
from repro.common.metrics import percentile
from repro.consensus.base import OrderingService
from repro.core.client import HyperProvClient
from repro.devices.model import DeviceModel
from repro.fabric.network import FabricNetwork
from repro.fabric.peer import Peer
from repro.ledger.blockchain import BlockStore
from repro.ledger.history import HistoryDatabase
from repro.ledger.transaction import Transaction
from repro.ledger.world_state import WorldState
from repro.membership.identity import Identity
from repro.membership.msp import MSP
from repro.middleware.base import TransactionPipeline
from repro.middleware.batching import EndorsementBatcher
from repro.middleware.cache import ReadCacheMiddleware
from repro.middleware.metrics import MetricsMiddleware
from repro.middleware.query import QueryPlannerMiddleware
from repro.middleware.retry import RetryMiddleware
from repro.middleware.sharding import ShardRouterMiddleware
from repro.middleware.stages import (
    AwaitCommitStage,
    BuildProposalStage,
    CollectEndorsementsStage,
    SubmitToOrdererStage,
)
from repro.middleware.tenancy import AdmissionControlMiddleware, TenantPrefixMiddleware
from repro.middleware.tracing import RequestIdMiddleware
from repro.network.fabric import NetworkFabric
from repro.query import planner
from repro.query.continuous import ContinuousQueryRegistry
from repro.query.indexes import FieldValueIndex
from repro.simulation.engine import SimulationEngine
from repro.storage.content import ContentAddressedStore

from tracer import Tracer

#: Client middlewares and Fabric invoke stages, wrapped at ``handle``.
_CLIENT_MIDDLEWARES = (
    RequestIdMiddleware, MetricsMiddleware, QueryPlannerMiddleware,
    AdmissionControlMiddleware, TenantPrefixMiddleware, RetryMiddleware,
    ReadCacheMiddleware, ShardRouterMiddleware,
)
_INVOKE_STAGES = (
    BuildProposalStage, CollectEndorsementsStage, EndorsementBatcher,
    SubmitToOrdererStage, AwaitCommitStage,
)

#: ``api`` probe → (owner, attribute).
_API_PROBES: Dict[str, Tuple[type, str]] = {
    "api.submit": (ProvenanceSession, "submit"),
    "api.get": (ProvenanceSession, "get"),
    "api.verify": (ProvenanceSession, "verify"),
    "api.history": (ProvenanceSession, "history"),
    "api.query": (ProvenanceSession, "query"),
    "api.range": (HyperProvClient, "get_by_range"),
    "api.drain": (HyperProvService, "drain"),
}

#: Plain method probes: name → [(owner, attribute), ...].
_METHOD_PROBES: Dict[str, List[Tuple[type, str]]] = {
    "middleware.pipeline": [(TransactionPipeline, "execute")],
    **{f"middleware.{cls.name}": [(cls, "handle")] for cls in _CLIENT_MIDDLEWARES},
    "fabric.submit_transaction": [(FabricNetwork, "submit_transaction")],
    "fabric.query": [(FabricNetwork, "query")],
    "fabric.peer.endorse": [(Peer, "endorse")],
    "fabric.peer.query": [(Peer, "query")],
    "fabric.peer.deliver_block": [(Peer, "deliver_block")],
    **{f"fabric.stage.{cls.name}": [(cls, "handle")] for cls in _INVOKE_STAGES},
    "consensus.submit": [(OrderingService, "submit")],
    "consensus.flush": [(OrderingService, "flush")],
    "chaincode.invoke": [(HyperProvChaincode, "invoke")],
    "ledger.world_state.put": [(WorldState, "put")],
    "ledger.block_store.append": [(BlockStore, "append")],
    "ledger.history.record": [(HistoryDatabase, "record")],
    "ledger.tx.envelope_bytes": [(Transaction, "envelope_bytes")],
    "query.index.update": [(FieldValueIndex, "update")],
    "query.index.lookup": [(FieldValueIndex, "lookup")],
    "common.events.publish": [(EventBus, "publish")],
    "membership.sign": [(Identity, "sign")],
    "membership.verify": [(MSP, "verify_signature"), (MSP, "validate_certificate")],
    "network.transfer": [(NetworkFabric, "estimate_transfer_time")],
    # ``charge_cpu`` is a one-line delegate to ``occupy``.
    "devices.charge": [(DeviceModel, "occupy")],
    "simulation.engine.step": [(SimulationEngine, "step")],
    "simulation.engine.schedule": [(SimulationEngine, "schedule_at")],
    "storage.put": [(ContentAddressedStore, "put")],
}

#: Module functions, rebound in every ``repro.*`` module that imported them.
_FUNCTION_PROBES: Dict[str, Tuple[Any, str]] = {
    "query.build_plan": (planner, "build_plan"),
    "common.canonical_json": (serialization, "canonical_json"),
    "common.checksum_of": (hashing, "checksum_of"),
}

#: Probes installed by bespoke wrappers in :class:`installed`.
_SPECIAL_PROBES = (
    "middleware.read-cache.invalidate",  # EventBus handlers of the read cache
    "fabric.on_block",                   # the consumer given to register_consumer
    "ledger.world_state.scan",           # range/prefix scans, eager and lazy
    "query.continuous.deliver",          # EventBus handlers of the registries
    "common.events.handler",             # every other EventBus handler
)

_LAYER_ORDER = (
    "api", "middleware", "fabric", "consensus", "chaincode", "ledger", "query",
    "common", "membership", "network", "devices", "simulation", "storage",
)

PROBE_NAMES: Tuple[str, ...] = tuple(sorted(
    [*_API_PROBES, *_METHOD_PROBES, *_FUNCTION_PROBES, *_SPECIAL_PROBES],
    key=lambda name: (_LAYER_ORDER.index(name.split(".", 1)[0]), name),
))

_DERIVED_UNITS: Dict[str, str] = {
    "api.call_us_p99": "us",
    "api.call_us_p999": "us",
    "middleware.tax_share": "ratio",
    "middleware.read-cache.hit_ratio": "ratio",
    "consensus.txs_per_block": "count",
    "ledger.scan_rows_per_result": "count",
    "simulation.events_per_op": "count",
    "simulation.parallel.speedup": "ratio",
    "simulation.parallel.efficiency": "ratio",
    "simulation.parallel.stall_share": "ratio",
    "simulation.parallel.wall_s": "s",
    "simulation.sequential.wall_s": "s",
    "host.speed_factor": "ratio",
    "host.raw_ops_per_s": "ops/s",
    "host.gc_collections": "count",
    "host.pass_spread": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}


def _catalogue() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for name in PROBE_NAMES:
        first = ".p50_us" if name.startswith("api.") else ".calls_per_op"
        units[name + first] = "us" if name.startswith("api.") else "count"
        units[name + ".self_us_per_op"] = "us"
    units.update(_DERIVED_UNITS)
    return units


#: Every per-layer metric and its unit, in reporting order.
PER_LAYER_UNITS: Dict[str, str] = _catalogue()

#: Per-layer metrics where a larger value is the better one (all others: lower).
HIGHER_IS_BETTER = frozenset({
    "middleware.read-cache.hit_ratio",
    "consensus.txs_per_block",
    "simulation.parallel.speedup",
    "simulation.parallel.efficiency",
    "host.speed_factor",
    "host.raw_ops_per_s",
})


def _count_rows(counter: str) -> Callable[[Tracer, tuple, Any], None]:
    def observe(tracer: Tracer, _args: tuple, result: Any) -> None:
        tracer.count(counter, len(result))
    return observe


def _observe_query_rows(tracer: Tracer, _args: tuple, page: Any) -> None:
    tracer.count("api.result_rows", len(page.records))


def _observe_range_rows(tracer: Tracer, _args: tuple, result: Any) -> None:
    tracer.count("api.result_rows", len(result.payload))


def _observe_cache(tracer: Tracer, args: tuple, _result: Any) -> None:
    ctx = args[1]
    if ctx.is_read:
        tracer.count("cache.reads")
        if ctx.cache_hit:
            tracer.count("cache.hits")


def _handler_probe(handler: Callable) -> str:
    owner = getattr(handler, "__self__", None)
    if isinstance(owner, ReadCacheMiddleware):
        return "middleware.read-cache.invalidate"
    if isinstance(owner, ContinuousQueryRegistry):
        return "query.continuous.deliver"
    return "common.events.handler"


class installed:
    """Context manager: patch every probe on entry, restore on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: ``(owner, attribute, original)`` of everything patched, in order.
        self.patched: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self.patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def __enter__(self) -> "installed":
        tracer = self.tracer
        observers = {
            "api.query": _observe_query_rows,
            "api.range": _observe_range_rows,
            "middleware.read-cache": _observe_cache,
        }
        for name, (owner, attribute) in _API_PROBES.items():
            self._patch(owner, attribute, tracer.wrap(
                name, vars(owner)[attribute], observers.get(name)))
        for name, targets in _METHOD_PROBES.items():
            for owner, attribute in targets:
                self._patch(owner, attribute, tracer.wrap(
                    name, vars(owner)[attribute], observers.get(name)))
        for name, (module, attribute) in _FUNCTION_PROBES.items():
            self._rebind_everywhere(
                getattr(module, attribute), tracer.wrap(name, getattr(module, attribute)))

        scan = "ledger.world_state.scan"
        for attribute in ("range_query_versioned", "query_by_prefix_versioned"):
            self._patch(WorldState, attribute, tracer.wrap(
                scan, vars(WorldState)[attribute], _count_rows("ledger.scan_rows")))
        for attribute in ("iter_by_range_versioned", "iter_by_prefix_versioned"):
            self._patch(WorldState, attribute, tracer.wrap_iterator(
                scan, vars(WorldState)[attribute], "ledger.scan_rows"))

        subscribe = EventBus.subscribe

        def traced_subscribe(bus: EventBus, topic: str, handler: Callable) -> Any:
            return subscribe(bus, topic, tracer.wrap(_handler_probe(handler), handler))

        self._patch(EventBus, "subscribe", traced_subscribe)

        register_consumer = OrderingService.register_consumer

        def traced_register(orderer: OrderingService, consumer: Callable) -> None:
            def observe(tracer: Tracer, args: tuple, _result: Any) -> None:
                tracer.count("consensus.blocks")
                tracer.count("consensus.block_txs", args[0].tx_count)

            register_consumer(orderer, tracer.wrap("fabric.on_block", consumer, observe))

        self._patch(OrderingService, "register_consumer", traced_register)
        return self

    def _rebind_everywhere(self, original: Callable, replacement: Callable) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        for owner, attribute, original in reversed(self.patched):
            setattr(owner, attribute, original)
        self.patched.clear()


def per_probe_metrics(tracer: Tracer, ops: int, speed_factor: float) -> Dict[str, float]:
    """The two metrics of every probe, from one traced pass of ``ops`` operations.

    Times are scaled by the pass's ``speed_factor`` (reference speed).
    """
    to_us = speed_factor / 1000.0
    self_ns = tracer.self_ns_by_probe()
    metrics: Dict[str, float] = {}
    for probe_id, name in enumerate(tracer.names):
        if name.startswith("api."):
            metrics[name + ".p50_us"] = percentile(tracer.durations_of(name), 50.0) * to_us
        else:
            metrics[name + ".calls_per_op"] = tracer.calls[probe_id] / ops
        metrics[name + ".self_us_per_op"] = self_ns[probe_id] * to_us / ops
    return metrics


def derived_from_trace(tracer: Tracer, ops: int, traced_region_s: float) -> Dict[str, float]:
    """Derived metrics that need only the traced pass itself."""
    self_ns = tracer.self_ns_by_probe()
    middleware_ns = sum(
        ns for name, ns in zip(tracer.names, self_ns) if name.startswith("middleware.")
    )
    counters = tracer.counters
    region_ns = traced_region_s * 1e9

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    return {
        "middleware.tax_share": ratio(middleware_ns, region_ns),
        "middleware.read-cache.hit_ratio": ratio(
            counters.get("cache.hits", 0), counters.get("cache.reads", 0)),
        "consensus.txs_per_block": ratio(
            counters.get("consensus.block_txs", 0), counters.get("consensus.blocks", 0)),
        "ledger.scan_rows_per_result": ratio(
            counters.get("ledger.scan_rows", 0), counters.get("api.result_rows", 0)),
        "simulation.events_per_op": ratio(
            tracer.calls[tracer.probe_id("simulation.engine.step")], ops),
        "trace.unattributed_share": max(0.0, 1.0 - ratio(tracer.root_ns(), region_ns)),
    }
