"""The HyperProv client library.

Wraps a :class:`~repro.fabric.network.FabricNetwork` and an off-chain
storage backend behind the operator set described in the paper.  The
record-level operators are served by :meth:`HyperProvClient.as_store`
(the unified :class:`repro.api.ProvenanceStore`); the rest are methods of
the client itself:

====================  =======================================================
Operator              Behaviour
====================  =======================================================
``init``              Sanity-check that the chaincode is instantiated on
                      every hosted channel and the client identity validates
                      against each channel's MSP.
``store.submit``      Record provenance metadata for data stored elsewhere
                      (the paper's ``post``) or store the data off-chain
                      *and* post its record (``store_data``).
``store.get``         Latest on-chain provenance record for a key.
``store.history``     Every recorded version of a key (``get_key_history``).
``store.verify``      Verify a checksum or raw data against the chain
                      (``check_hash``).
``store.query``       Rich query over record fields.
``get_data``          Resolve the on-chain pointer, fetch the data off-chain
                      and verify its checksum against the chain.
``get_dependencies``  The dependency list of a key's latest record.
``get_by_range``      Records in a key range (optionally paginated).
``get_lineage``       Ancestors, descendants, depth and agents of a key,
                      walked over committed history (tenant-confined).
====================  =======================================================
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.api.protocol import RecordView
from repro.chaincode.records import ProvenanceRecord
from repro.common.errors import (
    ChaincodeError,
    ChecksumMismatchError,
    NotFoundError,
    ValidationError,
)
from repro.common.events import Subscription
from repro.common.hashing import checksum_of
from repro.common.metrics import MetricsRegistry
from repro.common.tenancy import strip_namespace, tenant_namespace
from repro.fabric.network import FabricNetwork
from repro.fabric.proposal import ProposalResponse, TransactionHandle
from repro.ledger.history import HistoryEntry
from repro.middleware.base import TransactionPipeline
from repro.middleware.config import PipelineConfig, build_client_pipeline
from repro.middleware.context import Context, OperationKind
from repro.provenance.lineage import LineageReport, lineage_report
from repro.storage.content import ContentAddressedStore
from repro.storage.sshfs import StorageReceipt


@dataclass
class QueryResult:
    """Outcome of ``get_by_range`` / ``get_dependencies``."""

    payload: Any
    latency_s: float
    #: Resume token of a paginated read (``None`` = last page / unpaginated).
    bookmark: Optional[str] = None
    #: Degraded-mode marker: the peer was unreachable and this result was
    #: served from the client's last-known-good archive (``stale_reads``).
    stale: bool = False


@dataclass
class DataResult:
    """Outcome of ``get_data``: record, bytes and verification status."""

    record: RecordView
    data: bytes
    verified: bool
    latency_s: float
    timings: Dict[str, float] = field(default_factory=dict)


class HyperProvClient:
    """High-level HyperProv API bound to one client identity.

    Record-level reads and writes go through :meth:`as_store` or a
    :class:`repro.api.HyperProvService` session.
    """

    def __init__(
        self,
        network: FabricNetwork,
        client_name: str,
        storage: Optional[ContentAddressedStore] = None,
        chaincode_name: str = "hyperprov",
        metrics: Optional[MetricsRegistry] = None,
        pipeline_config: Optional[PipelineConfig] = None,
    ) -> None:
        self.network = network
        self.client_name = client_name
        self.storage = storage
        self.chaincode_name = chaincode_name
        self.metrics = metrics or MetricsRegistry(f"client.{client_name}")
        self._context = network.client_context(client_name)
        self.pipeline_config = pipeline_config or PipelineConfig()
        self.pipeline: TransactionPipeline = self._build_pipeline(self.pipeline_config)
        self._store_adapter = None

    def as_store(self):
        """This client as a unified :class:`repro.api.ProvenanceStore`."""
        if self._store_adapter is None:
            from repro.api.adapters import HyperProvStore

            self._store_adapter = HyperProvStore(self)
        return self._store_adapter

    # -------------------------------------------------------------- pipeline
    def _build_pipeline(self, config: PipelineConfig) -> TransactionPipeline:
        if config.shards > self.network.shard_count:
            raise ValidationError(
                f"pipeline wants {config.shards} shards but the network hosts "
                f"{self.network.shard_count} channel(s); build the deployment "
                f"with shards={config.shards}"
            )
        # ``network.events`` is the aggregate bus: every shard's commits
        # reach the read cache through it; the network's placement table
        # tells the shard router where each tenant namespace lives.
        return build_client_pipeline(
            config,
            self._dispatch,
            clock=lambda: self.network.engine.now,
            events=self.network.events,
            metrics=self.metrics,
            engine=self.network.engine,
            placement=self.network.tenant_shards,
        )

    def configure_pipeline(self, config: PipelineConfig) -> None:
        """Swap the middleware chain (ablations: cache on/off, retry, batching).

        Also applies the config's fabric-side knobs
        (:meth:`apply_fabric_knobs`), so one declarative object describes
        the whole path.  Builds the replacement chain before touching the
        current one, so a rejected config (e.g. more shards than the
        network hosts) leaves the client fully functional on its old
        pipeline.
        """
        replacement = self._build_pipeline(config)
        self.pipeline.close()
        self.pipeline = replacement
        self.pipeline_config = config
        self.apply_fabric_knobs()

    def apply_fabric_knobs(self) -> None:
        """Push this client's fabric-side pipeline knobs onto the network.

        ``order_batch_size`` goes to every endorsement batcher,
        ``scheduler`` to every shard's ordering service and ``indexes`` to
        every peer ledger.  The network is shared by every session of a
        deployment, so this is last-writer-wins.
        """
        config = self.pipeline_config
        self.network.set_order_batch_size(config.order_batch_size)
        if config.scheduler is not None:
            self.network.set_scheduler(config.scheduler)
        # Index enablement is one-way here: an empty tuple means "this
        # config doesn't care", not "tear down another pipeline's indexes"
        # (several tenant pipelines share one deployment).
        if config.indexes:
            self.network.enable_secondary_indexes(config.indexes)

    def _dispatch(self, ctx: Context):
        """Terminal pipeline handler: hand the operation to the network.

        The shard router (when configured) parks its routing decision in
        ``ctx.tags["shard"]``; unrouted pipelines run on shard 0, the
        historical single-channel path.
        """
        shard = ctx.tags.get("shard", 0)
        if ctx.is_read:
            return self.network.query(
                self.client_name,
                ctx.chaincode,
                ctx.function,
                ctx.args,
                at_time=ctx.at_time,
                shard=shard,
            )
        return self.network.submit_transaction(
            self.client_name,
            ctx.chaincode,
            ctx.function,
            ctx.args,
            at_time=ctx.at_time,
            payload_size_bytes=ctx.payload_size_bytes,
            shard=shard,
        )

    def _query(
        self,
        operation: str,
        function: str,
        args: List[str],
        at_time: Optional[float] = None,
    ) -> "tuple[ProposalResponse, float, Context]":
        """Run a read-only operator through the pipeline.

        Returns the response, the observed latency, and the drained
        context — callers surface degraded-mode markers (``ctx.stale``)
        on their results.
        """
        ctx = Context(
            operation=operation,
            kind=OperationKind.READ,
            chaincode=self.chaincode_name,
            function=function,
            args=list(args),
            client_name=self.client_name,
            at_time=at_time,
        )
        response, latency = self.pipeline.execute(ctx)
        return response, latency, ctx

    def _invoke(
        self,
        operation: str,
        function: str,
        args: List[str],
        payload_size_bytes: int = 0,
        at_time: Optional[float] = None,
    ) -> TransactionHandle:
        """Run a state-changing operator through the pipeline."""
        ctx = Context(
            operation=operation,
            kind=OperationKind.WRITE,
            chaincode=self.chaincode_name,
            function=function,
            args=list(args),
            client_name=self.client_name,
            payload_size_bytes=payload_size_bytes,
            at_time=at_time,
        )
        return self.pipeline.execute(ctx)

    # ------------------------------------------------------------------ init
    def init(self) -> bool:
        """Verify every hosted channel is usable: chaincode instantiated, MSP accepts us."""
        for shard in self.network.shards:
            channel = shard.channel
            if channel.chaincodes.find(self.chaincode_name) is None:
                raise ChaincodeError(
                    f"chaincode {self.chaincode_name!r} is not instantiated on "
                    f"channel {channel.name!r}"
                )
            channel.msp.require_valid_certificate(self._context.identity.certificate)
        return True

    # ------------------------------------------------- beyond the protocol
    def get_dependencies(self, key: str, at_time: Optional[float] = None) -> QueryResult:
        """Dependency list of the latest record for ``key``."""
        response, latency, ctx = self._query(
            "get_dependencies", "getdependencies", [key], at_time=at_time
        )
        if not response.is_ok or response.payload is None:
            raise NotFoundError(response.message or f"key {key!r} not found")
        dependencies = json.loads(response.payload)
        tenant = self.pipeline_config.tenant
        if tenant:
            dependencies = [strip_namespace(tenant, dep) for dep in dependencies]
        return QueryResult(payload=dependencies, latency_s=latency, stale=ctx.stale)

    def on_provenance_recorded(self, callback) -> Subscription:
        """Subscribe to the chaincode event emitted on every committed ``set``.

        ``callback`` receives a dict with ``key``, ``checksum``, ``creator``,
        ``tx_id`` and ``block_number`` once the recording transaction commits
        — the push-style integration the NodeJS client library offers through
        Fabric's event hub.  ``cancel()`` the returned subscription (or use
        it as a context manager) to detach the listener.
        """
        event_topic = "chaincode_event:provenance_recorded"

        def _handler(_topic: str, payload: Dict[str, Any]) -> None:
            details = json.loads(payload.get("payload") or "{}")
            details.update(
                {"tx_id": payload.get("tx_id"), "block_number": payload.get("block_number")}
            )
            callback(details)

        return self.network.events.subscribe(event_topic, _handler)

    def get_by_range(
        self,
        start_key: str = "",
        end_key: str = "",
        at_time: Optional[float] = None,
        limit: Optional[int] = None,
        bookmark: Optional[str] = None,
    ) -> QueryResult:
        """Provenance records in a key range (optionally paginated)."""
        args = [start_key, end_key]
        if limit is not None or bookmark is not None:
            args.append(str(limit) if limit is not None else "0")
            args.append(bookmark or "")
        response, latency, ctx = self._query(
            "get_by_range", "getbyrange", args, at_time=at_time
        )
        if not response.is_ok or response.scan is None:
            raise ChaincodeError(response.message or "range query failed")
        views = self.as_store().row_views(response.scan, ctx.stale)
        return QueryResult(
            payload=[{"key": view.key, "record": view} for view in views],
            latency_s=latency,
            bookmark=response.scan.bookmark,
            stale=ctx.stale,
        )

    # -------------------------------------------------------------- off-chain
    def _require_storage(self) -> ContentAddressedStore:
        if self.storage is None:
            raise ValidationError(
                "this client was constructed without an off-chain storage backend"
            )
        return self.storage

    def _put_payload(self, data: bytes, at_time: Optional[float] = None) -> StorageReceipt:
        """Store ``data`` off-chain; its record is posted at ``receipt.completed_at``."""
        storage = self._require_storage()
        start = self.network.engine.now if at_time is None else at_time
        return storage.put(
            data,
            at_time=start,
            client_device=self._context.device,
            client_node=self._context.host_node,
        )

    def get_data(self, key: str, at_time: Optional[float] = None) -> DataResult:
        """Fetch the data behind ``key`` from off-chain storage and verify it."""
        storage = self._require_storage()
        start = self.network.engine.now if at_time is None else at_time
        record = self.as_store().get(key, at_time=start)

        receipt = storage.get(
            record.checksum,
            at_time=start + record.latency_s,
            client_device=self._context.device,
            client_node=self._context.host_node,
            expected_checksum=record.checksum,
        )
        obj = storage.get_object(record.checksum)
        if obj is None:
            raise NotFoundError(f"data for key {key!r} is missing from off-chain storage")
        verified = checksum_of(obj.data) == record.checksum
        if not verified:
            raise ChecksumMismatchError(record.checksum, checksum_of(obj.data))
        latency = (receipt.completed_at - start)
        self.metrics.histogram("get_data_latency_s").observe(latency)
        return DataResult(
            record=record,
            data=obj.data,
            verified=verified,
            latency_s=latency,
            timings={"chain_s": record.latency_s, "storage_s": receipt.duration_s},
        )

    # -------------------------------------------------------------- lineage
    def get_lineage(self, key: str) -> LineageReport:
        """Lineage report (ancestors, descendants, agents) for ``key``.

        Walks the anchor peer's committed history on every shard, ordered
        by commit timestamp (block numbers are only comparable within one
        shard).  Under a tenant pipeline only the tenant's namespace is
        read, a dependency that leaves it is dropped, and every artifact
        in the report is named by its tenant-relative key.
        """
        tenant = self.pipeline_config.tenant
        prefix = tenant_namespace(tenant) if tenant else ""
        entries: List[HistoryEntry] = []
        for index in range(self.network.shard_count):
            history = self.network.peer(self._context.anchor_peer, shard=index).history
            keys = history.keys()
            for ledger_key in keys[bisect_left(keys, prefix):]:
                if not ledger_key.startswith(prefix):
                    break
                if not ledger_key.startswith("__"):
                    entries.extend(history.history_for_key(ledger_key))
        entries.sort(key=lambda e: (e.timestamp, e.block_number, e.tx_number))
        records = [
            ProvenanceRecord.from_json(entry.value)
            for entry in entries
            if entry.value and not entry.is_delete
        ]
        if tenant:
            for record in records:
                record.key = strip_namespace(tenant, record.key)
                record.dependencies = [
                    strip_namespace(tenant, dep)
                    for dep in record.dependencies
                    if dep.startswith(prefix)
                ]
        return lineage_report(records, key)
