"""Peers: endorsement, validation and commit.

Each peer holds its own copy of the ledger (block store, world state,
history index), hosts the installed chaincode, and runs on a
:class:`~repro.devices.model.DeviceModel` so every endorsement and commit
charges CPU/disk time on the machine it would have run on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.chaincode.hyperprov import HyperProvChaincode
from repro.chaincode.shim import ChaincodeResponse, ChaincodeStub
from repro.common.errors import ChaincodeError, EndorsementError
from repro.common.metrics import Histogram, MetricsRegistry
from repro.devices.model import DeviceModel
from repro.fabric.channel import Channel
from repro.fabric.proposal import Proposal, ProposalResponse
from repro.ledger.block import Block
from repro.ledger.blockchain import BlockStore
from repro.ledger.history import HistoryDatabase, HistoryEntry
from repro.ledger.transaction import (
    Endorsement,
    ReadWriteSet,
    Transaction,
    TxValidationCode,
    Version,
)
from repro.ledger.world_state import VersionedValue, WorldState
from repro.membership.identity import Identity


@dataclass
class CommitResult:
    """Outcome of delivering one block to one peer."""

    peer: str
    block_number: int
    received_at: float
    committed_at: float
    validation_codes: List[TxValidationCode] = field(default_factory=list)
    valid_count: int = 0
    invalid_count: int = 0

    @property
    def commit_duration_s(self) -> float:
        return self.committed_at - self.received_at


class SharedSimulation:
    """The one chaincode run an endorsement fan-out shares between replicas.

    A deterministic chaincode's outcome (response, rw-set, event, state
    operation count) is a pure function of the proposal and of the
    ``(version, value)`` pairs its point reads returned.  The network makes
    one of these per fan-out and hands it to every endorser of that
    proposal: the first peer whose simulation kept a complete read log
    (:attr:`ChaincodeStub.read_log`) fills it, and a later peer adopts that
    run only after re-reading the same keys from its *own* world state and
    finding every entry equal.  It dies with the fan-out, so there is
    nothing to key, bound or evict, and a retried submission (a new
    :class:`Proposal`) can never meet an earlier attempt's result.
    """

    __slots__ = ("proposal", "chaincode", "stub", "result")

    def __init__(self, proposal: Proposal) -> None:
        self.proposal = proposal
        self.chaincode: Optional[HyperProvChaincode] = None
        self.stub: Optional[ChaincodeStub] = None
        self.result: Optional[ChaincodeResponse] = None

    def holds_for(
        self, proposal: Proposal, chaincode: HyperProvChaincode, world_state: WorldState
    ) -> bool:
        """Whether a replica with this ``world_state`` would get the same run."""
        if (
            self.stub is None
            or self.proposal is not proposal
            or self.chaincode is not chaincode
        ):
            return False
        committed = world_state.get
        for key, entry in self.stub.read_log:
            if committed(key) != entry:
                return False
        return True


class SharedCommit:
    """The one validation of a block a delivery fan-out shares between replicas.

    What committing a block does to a replica (one validation code per
    transaction, the ordered world-state writes and deletes, one history
    entry per write, the signature-check count, the Merkle verdict) is a
    pure function of the block, of the channel and of exactly what
    validation reads from the replica's own ledger: its chain height and
    tip hash, which of the block's tx ids it already holds, and the
    pre-block version of every key some transaction reads before the block
    itself has written it.  The network makes one of these per fan-out and
    hands it to every replica: the first one that validates *and commits*
    the block fills it, and a later replica applies the recorded outcome
    only after re-reading those inputs from its **own** ledger and finding
    every one equal — sharing the immutable :class:`VersionedValue` and
    frozen :class:`HistoryEntry` objects instead of building its own.  It
    dies with the fan-out, so there is nothing to key, bound or evict;
    ``codes`` is a tuple, so nothing mutable is shared.

    A filled plan implies the block passed the filling replica's
    ``BlockStore.append``, so the data hash of this very ``Block`` object's
    transaction list is known to match its header.
    """

    __slots__ = (
        "block", "channel", "height", "tip_hash", "held", "read_versions",
        "codes", "verify_ops", "valid", "applied",
    )

    #: ``None`` until a replica has validated and committed ``block``; every
    #: slot below is written by that replica's ``Peer._validate``.
    channel: Optional[Channel]
    height: int
    tip_hash: str
    #: Tx ids of ``block`` the validating replica had already committed.
    held: Set[str]
    #: Key → version the validating replica's world state held before the
    #: block, for every key validation looked up there.
    read_versions: Dict[str, Optional[Version]]
    codes: Tuple[TxValidationCode, ...]
    verify_ops: int
    #: The valid transactions, each with the version its writes get.
    valid: List[Tuple[Transaction, Version]]
    #: The committed writes in order: ``(key, entry, history entry)``,
    #: ``entry`` being ``None`` for a delete.
    applied: List[Tuple[str, Optional[VersionedValue], HistoryEntry]]

    def __init__(self, block: Block) -> None:
        self.block = block
        self.channel = None

    def holds_for(self, block: Block, peer: "Peer") -> bool:
        """Whether ``peer`` validating ``block`` itself would get this outcome."""
        if self.channel is None or self.block is not block or self.channel is not peer.channel:
            return False
        store = peer.block_store
        if store.height != self.height or store.latest_hash != self.tip_hash:
            return False
        held = self.held
        for tx in block.transactions:
            if peer.committed(tx.tx_id) is not (tx.tx_id in held):
                return False
        version_of = peer.world_state.get_version
        for key, version in self.read_versions.items():
            if version_of(key) != version:
                return False
        return True


class Peer:
    """A Fabric peer node."""

    def __init__(
        self,
        name: str,
        identity: Identity,
        device: DeviceModel,
        channel: Channel,
        parallel_validation: bool = False,
    ) -> None:
        self.name = name
        self.identity = identity
        self.device = device
        self.channel = channel
        self.metrics = MetricsRegistry(component="peer", peer=name, channel=channel.name)
        #: FastFabric-style optimization (Gorenflo et al., cited by the
        #: paper): validate endorsement signatures on all cores in parallel
        #: instead of a single validator thread.
        self.parallel_validation = parallel_validation
        self.block_store = BlockStore()
        self.world_state = WorldState()
        self.history = HistoryDatabase()
        self._committed_tx_ids: Set[str] = set()
        # Metric handles resolved once: name-based registry lookups are
        # measurable when repeated for every endorsement and commit.
        self._endorse_time = self.metrics.histogram("endorse_time_s")
        self._query_time = self.metrics.histogram("query_time_s")
        self._txs_valid = self.metrics.counter("txs", status="valid")
        self._txs_invalid = self.metrics.counter("txs", status="invalid")
        self._commit_time = self.metrics.histogram("commit_time_s")
        channel.join(name)

    # -------------------------------------------------------------- endorse
    def endorse(
        self,
        proposal: Proposal,
        at_time: float,
        shared: Optional[SharedSimulation] = None,
    ) -> Tuple[ProposalResponse, float]:
        """Simulate the chaincode for ``proposal`` and endorse the result.

        Returns the response and the virtual time at which it is ready to
        leave the peer (after CPU queueing on this device).  With the
        fan-out's ``shared`` simulation the chaincode run itself may be
        adopted from an earlier replica (see :class:`SharedSimulation`);
        the install check, the client-signature verification, the device
        charges and this peer's own signature never are.
        """
        return self._evaluate(proposal, at_time, shared, self._endorse_time)

    # ---------------------------------------------------------------- query
    def query(self, proposal: Proposal, at_time: float) -> Tuple[ProposalResponse, float]:
        """Evaluate a read-only invocation (no ordering, no commit).

        The same checks, charges and signed response as :meth:`endorse`,
        timed under ``query_time_s`` instead.
        """
        return self._evaluate(proposal, at_time, None, self._query_time)

    def _evaluate(
        self,
        proposal: Proposal,
        at_time: float,
        shared: Optional[SharedSimulation],
        time_s: Histogram,
    ) -> Tuple[ProposalResponse, float]:
        definition = self.channel.chaincodes.get(proposal.chaincode)
        if not definition.is_installed_on(self.name):
            raise EndorsementError(
                f"chaincode {proposal.chaincode!r} is not installed on peer {self.name!r}"
            )
        # Validate the submitting client before doing any work.
        msp = self.channel.msp
        if not msp.verify_signature(
            proposal.creator, proposal.signed_bytes(), proposal.signature
        ):
            response = ProposalResponse(
                tx_id=proposal.tx_id,
                peer=self.name,
                status=500,
                payload=None,
                message="client signature rejected by MSP",
                rw_set=ReadWriteSet(),
                endorsement=None,
                produced_at=at_time,
            )
            return response, at_time

        stub, result = self._simulate(definition.chaincode, proposal, shared)

        # Charge device time: signature verification of the client,
        # chaincode execution (container IPC + state ops), response signing.
        duration = (
            self.device.verify_time()
            + self.device.chaincode_time(stub.state_operations, proposal.size_bytes)
            + self.device.sign_time()
        )
        _, finished_at = self.device.charge_cpu(at_time, duration)

        time_s.observe(finished_at - at_time)

        if not result.is_ok:
            response = ProposalResponse(
                tx_id=proposal.tx_id,
                peer=self.name,
                status=result.status,
                payload=result.payload,
                message=result.message,
                rw_set=stub.rw_set,
                endorsement=None,
                produced_at=finished_at,
            )
            return response, finished_at

        response_digest = stub.rw_set.digest()
        signature = self.identity.sign(response_digest.encode("ascii"))
        endorsement = Endorsement(
            endorser=self.name,
            organization=self.identity.organization,
            certificate=self.identity.certificate,
            signature=signature,
            response_digest=response_digest,
        )
        response = ProposalResponse(
            tx_id=proposal.tx_id,
            peer=self.name,
            status=result.status,
            payload=result.payload,
            message=result.message,
            rw_set=stub.rw_set,
            endorsement=endorsement,
            produced_at=finished_at,
            chaincode_event=stub.event,
            scan=result.scan,
            history=result.history,
        )
        return response, finished_at

    def _simulate(
        self,
        chaincode: HyperProvChaincode,
        proposal: Proposal,
        shared: Optional[SharedSimulation],
    ) -> Tuple[ChaincodeStub, ChaincodeResponse]:
        """Run the chaincode against committed state, or adopt the fan-out's run."""
        if shared is not None and shared.holds_for(proposal, chaincode, self.world_state):
            return shared.stub, shared.result
        # Only the first simulation of the fan-out is offered to the rest.
        offer = shared is not None and shared.stub is None and shared.proposal is proposal
        stub = ChaincodeStub(
            tx_id=proposal.tx_id,
            channel=self.channel.name,
            function=proposal.function,
            args=list(proposal.args),
            world_state=self.world_state,
            history=self.history,
            creator=proposal.creator,
            timestamp=proposal.timestamp,
            read_log=[] if offer else None,
        )
        try:
            result = chaincode.invoke(stub)
        except Exception as exc:  # noqa: BLE001 - chaincode bugs become 500s
            raise ChaincodeError(f"chaincode {proposal.chaincode!r} crashed: {exc}") from exc
        if offer and stub.read_log is not None:
            shared.chaincode, shared.stub, shared.result = chaincode, stub, result
        return stub, result

    # --------------------------------------------------------------- commit
    def deliver_block(
        self, block: Block, at_time: float, shared: Optional[SharedCommit] = None
    ) -> CommitResult:
        """Validate and commit a block received from the ordering service.

        Validate, verify, apply: the validation codes are worked out against
        the committed ledger without touching it, ``BlockStore.append``
        checks the block number, the hash link to this replica's own tip and
        the data hash, and only then are the valid transactions' writes,
        history entries and tx ids written — a block the replica refuses
        leaves it untouched.  With the fan-out's ``shared`` commit the
        validation outcome may be adopted from an earlier replica (see
        :class:`SharedCommit`); the number and link checks, the upkeep of
        this replica's own indexes, the device charges, the
        :class:`CommitResult` and the metrics never are.
        """
        adopted = shared is not None and shared.holds_for(block, self)
        if adopted:
            commit = shared
        else:
            # Only the first commit of the fan-out is offered to the rest.
            offer = shared is not None and shared.channel is None and shared.block is block
            commit = self._validate(block, shared if offer else SharedCommit(block))
        validation_codes = list(commit.codes)

        # Each peer stores its own Block object but *shares* the sealed,
        # effectively-immutable transaction envelopes with the orderer and
        # the other peers (FastFabric-style zero-copy commit).  Per-peer
        # ledger isolation for tamper-evidence experiments is preserved by
        # the explicit copy-on-write hook (``Block.tamper`` /
        # ``Peer.tamper``) instead of an unconditional deep copy.
        validated_block = Block(
            header=block.header,
            transactions=block.transactions,
            validation_flags=validation_codes,
            orderer=block.orderer,
        )
        self.block_store.append(validated_block, data_hash_verified=adopted)
        if adopted:
            self._adopt(commit)
        else:
            self._apply(block, commit)
            commit.channel = self.channel

        # Charge device time: verify endorsement signatures, MVCC checks
        # (cheap), write the block to disk.  With FastFabric-style parallel
        # validation the signature checks are spread over every core.
        verify_duration = self.device.verify_time(commit.verify_ops)
        if self.parallel_validation:
            verify_duration /= self.device.profile.cores
        cpu_duration = verify_duration + self.device.serialization_time(block.size_bytes)
        _, cpu_done = self.device.charge_cpu(at_time, cpu_duration)
        disk_duration = self.device.disk_write_time(block.size_bytes)
        _, committed_at = self.device.occupy("disk", cpu_done, disk_duration)

        valid = validation_codes.count(TxValidationCode.VALID)
        result = CommitResult(
            peer=self.name,
            block_number=validated_block.number,
            received_at=at_time,
            committed_at=committed_at,
            validation_codes=validation_codes,
            valid_count=valid,
            invalid_count=len(validation_codes) - valid,
        )

        self._txs_valid.inc(valid)
        self._txs_invalid.inc(len(validation_codes) - valid)
        self._commit_time.observe(result.commit_duration_s)
        return result

    # ------------------------------------------------------------ validation
    def _validate(self, block: Block, commit: SharedCommit) -> SharedCommit:
        """Fill ``commit`` with this replica's verdict on ``block``; writes nothing.

        Transactions are judged in order against the committed ledger plus
        the effects of the block's own earlier valid transactions
        (``written``, ``accepted``); every look-up that reaches the ledger
        itself is recorded (``held``, ``read_versions``) — those, with the
        height and tip, are what another replica must agree on to adopt.
        """
        commit.height = self.block_store.height
        commit.tip_hash = self.block_store.latest_hash
        commit.held = held = set()
        commit.read_versions = read_versions = {}
        commit.valid = valid = []
        commit.applied = []
        committed = self._committed_tx_ids
        written: Dict[str, Optional[Version]] = {}
        accepted: Set[str] = set()
        codes: List[TxValidationCode] = []
        verify_ops = 0
        for position, tx in enumerate(block.transactions):
            tx_id = tx.tx_id
            if tx_id in committed:
                held.add(tx_id)
                code = TxValidationCode.DUPLICATE_TXID
            elif tx_id in accepted:
                code = TxValidationCode.DUPLICATE_TXID
            else:
                code = self._validate_transaction(tx, written, read_versions)
            if code is TxValidationCode.VALID:
                accepted.add(tx_id)
                version: Version = (commit.height, position)
                valid.append((tx, version))
                for write in tx.rw_set.writes:
                    written[write.key] = None if write.is_delete else version
            codes.append(code)
            verify_ops += max(1, len(tx.endorsements))
        commit.codes = tuple(codes)
        commit.verify_ops = verify_ops
        return commit

    def _validate_transaction(
        self,
        tx: Transaction,
        written: Dict[str, Optional[Version]],
        read_versions: Dict[str, Optional[Version]],
    ) -> TxValidationCode:
        definition = self.channel.chaincodes.find(tx.chaincode)
        if definition is None:
            return TxValidationCode.INVALID_OTHER_REASON

        msp = self.channel.msp
        # Each endorsement must be over the rw-set this envelope carries and
        # signed by a valid, unrevoked member of its organisation; one that
        # does not verify counts for no organisation, and the policy decides.
        # ``verify_signature`` validates the certificate on every call, so a
        # revocation bites even where the signature's verdict is memoized.
        valid_orgs = set()
        expected_digest = tx.rw_set.digest()
        for endorsement in tx.endorsements:
            digest = endorsement.response_digest
            if digest != expected_digest:
                return TxValidationCode.BAD_SIGNATURE
            if not msp.verify_signature(
                endorsement.certificate, digest.encode("ascii"), endorsement.signature
            ):
                continue
            valid_orgs.add(endorsement.organization)
        if not definition.endorsement_policy.evaluate(valid_orgs):
            return TxValidationCode.ENDORSEMENT_POLICY_FAILURE

        # MVCC validation: every read version must still be current.
        committed_version = self.world_state.get_version
        for read in tx.rw_set.reads:
            key = read.key
            if key in written:
                current = written[key]
            else:
                current = read_versions[key] = committed_version(key)
            recorded = tuple(read.version) if read.version is not None else None
            if current != recorded:
                return TxValidationCode.MVCC_READ_CONFLICT
        return TxValidationCode.VALID

    def _apply(self, block: Block, commit: SharedCommit) -> None:
        """Write the valid transactions' effects, keeping the objects for adopters."""
        timestamp = block.header.timestamp
        applied = commit.applied
        for tx, version in commit.valid:
            for write in tx.rw_set.writes:
                entry = None
                if write.is_delete:
                    self.world_state.delete(write.key, version)
                else:
                    entry = self.world_state.put(write.key, write.value or "", version)
                record = self.history.record(
                    key=write.key,
                    tx_id=tx.tx_id,
                    block_number=version[0],
                    tx_number=version[1],
                    timestamp=timestamp,
                    value=write.value,
                    is_delete=write.is_delete,
                )
                applied.append((write.key, entry, record))
            self._committed_tx_ids.add(tx.tx_id)

    def _adopt(self, commit: SharedCommit) -> None:
        """Write the recorded effects, sharing the validating replica's entries."""
        for key, entry, record in commit.applied:
            if entry is None:
                self.world_state.delete(key, (record.block_number, record.tx_number))
            else:
                self.world_state.put_entry(key, entry)
            self.history.append(record)
        for tx, _version in commit.valid:
            self._committed_tx_ids.add(tx.tx_id)

    # --------------------------------------------------------------- tamper
    def tamper(self, block_number: int, tx_position: int) -> Transaction:
        """Rewrite one committed transaction in *this peer's* ledger copy.

        The copy-on-write hook for tamper-evidence experiments: because
        committed blocks share sealed transaction objects across peers,
        mutating them in place is forbidden — this clones the target
        transaction into this peer's block (``Block.tamper``) and returns
        the mutable clone.  The rewrite stays invisible to every other
        peer, and this peer's chain verification breaks as soon as the
        clone is modified — the clone's bytes are recomputed on every
        hash check instead of served from the sealed cache.
        """
        return self.block_store.block(block_number).tamper(tx_position)

    # ------------------------------------------------------------- inspection
    @property
    def ledger_height(self) -> int:
        return self.block_store.height

    def committed(self, tx_id: str) -> bool:
        """Whether the peer has committed a valid transaction with this id."""
        return tx_id in self._committed_tx_ids

    def state_snapshot(self) -> Dict[str, str]:
        return self.world_state.snapshot()
