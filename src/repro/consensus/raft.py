"""Raft consensus for the ordering service.

A compact but functionally complete Raft implementation: leader election
with randomized timeouts, log replication via AppendEntries, commit-index
advancement on majority match, and term-based safety checks.  Nodes talk
to each other through the simulated :class:`~repro.network.fabric.NetworkFabric`
and are driven entirely by the discrete-event engine, so elections and
replication interleave deterministically with the rest of the system.

The :class:`RaftOrderingService` uses a Raft cluster to order transaction
batches: the batch is proposed to the leader, replicated, and turned into
a block when its log entry commits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.common.errors import OrderingError
from repro.consensus.base import OrderingService
from repro.consensus.batching import BatchConfig
from repro.consensus.scheduler import OrderingScheduler
from repro.ledger.transaction import Transaction
from repro.network.fabric import Message, NetworkFabric
from repro.simulation.engine import SimulationEngine
from repro.simulation.randomness import DeterministicRandom


class RaftState(enum.Enum):
    """The three Raft roles."""

    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


@dataclass
class LogEntry:
    """A replicated log entry carrying an opaque payload (a tx batch)."""

    term: int
    index: int
    payload: Any
    committed: bool = False


#: Raft timing (seconds of virtual time) and the size charged per message.
ELECTION_TIMEOUT_MIN_S = 0.150
ELECTION_TIMEOUT_MAX_S = 0.300
HEARTBEAT_INTERVAL_S = 0.050
MESSAGE_SIZE_BYTES = 512
#: Members of the ordering service's Raft cluster.
CLUSTER_SIZE = 3

CommitCallback = Callable[[LogEntry], None]


class RaftNode:
    """One member of a Raft cluster."""

    def __init__(
        self,
        node_id: str,
        peers: List[str],
        engine: SimulationEngine,
        network: NetworkFabric,
        rng: DeterministicRandom,
    ) -> None:
        self.node_id = node_id
        self.peers = [p for p in peers if p != node_id]
        self.engine = engine
        self.network = network
        self._rng = rng

        # Persistent state.
        self.current_term = 0
        self.voted_for: Optional[str] = None
        self.log: List[LogEntry] = []

        # Volatile state.
        self.state = RaftState.FOLLOWER
        self.commit_index = -1
        self.last_applied = -1
        self.leader_id: Optional[str] = None

        # Leader state.
        self.next_index: Dict[str, int] = {}
        self.match_index: Dict[str, int] = {}

        self._votes_received: set = set()
        self._election_event = None
        self._heartbeat_event = None
        self._commit_callbacks: List[CommitCallback] = []

        self.network.register_node(node_id, handler=self._on_message)

    # ----------------------------------------------------------- public API
    def on_commit(self, callback: CommitCallback) -> None:
        """Register a callback invoked for every newly committed entry."""
        self._commit_callbacks.append(callback)

    def start(self) -> None:
        """Arm the first election timeout."""
        self._reset_election_timer()

    @property
    def is_leader(self) -> bool:
        return self.state is RaftState.LEADER

    @property
    def last_log_index(self) -> int:
        return len(self.log) - 1

    @property
    def last_log_term(self) -> int:
        return self.log[-1].term if self.log else 0

    def propose(self, payload: Any) -> LogEntry:
        """Append a new entry to the leader's log and start replicating it."""
        if not self.is_leader:
            raise OrderingError(f"{self.node_id} is not the Raft leader")
        entry = LogEntry(term=self.current_term, index=len(self.log), payload=payload)
        self.log.append(entry)
        self.match_index[self.node_id] = entry.index
        self._broadcast_append_entries()
        # A single-node cluster commits immediately.
        self._advance_commit_index()
        return entry

    # ------------------------------------------------------------ timers
    def _reset_election_timer(self) -> None:
        if self._election_event is not None:
            self._election_event.cancel()
        timeout = self._rng.uniform(ELECTION_TIMEOUT_MIN_S, ELECTION_TIMEOUT_MAX_S)
        # Daemon event: timers keep Raft alive while the simulation runs but
        # must not prevent run_until_idle() from ever terminating.
        self._election_event = self.engine.schedule_in(
            timeout, self._on_election_timeout,
            label=f"raft:{self.node_id}:election", daemon=True,
        )

    def _start_heartbeats(self) -> None:
        if self._heartbeat_event is not None:
            self._heartbeat_event.cancel()
        self._heartbeat_event = self.engine.schedule_in(
            HEARTBEAT_INTERVAL_S,
            self._on_heartbeat,
            label=f"raft:{self.node_id}:heartbeat", daemon=True,
        )

    def _on_heartbeat(self) -> None:
        if self.state is not RaftState.LEADER:
            return
        self._broadcast_append_entries()
        self._start_heartbeats()

    # ---------------------------------------------------------- elections
    def _on_election_timeout(self) -> None:
        if self.state is RaftState.LEADER:
            return
        self._become_candidate()

    def _become_candidate(self) -> None:
        self.state = RaftState.CANDIDATE
        self.current_term += 1
        self.voted_for = self.node_id
        self._votes_received = {self.node_id}
        self._reset_election_timer()
        request = {
            "term": self.current_term,
            "candidate_id": self.node_id,
            "last_log_index": self.last_log_index,
            "last_log_term": self.last_log_term,
        }
        for peer in self.peers:
            self._send(peer, "raft.request_vote", request)
        if self._has_majority(len(self._votes_received)):
            self._become_leader()

    def _become_leader(self) -> None:
        self.state = RaftState.LEADER
        self.leader_id = self.node_id
        self.next_index = {peer: len(self.log) for peer in self.peers}
        self.match_index = {peer: -1 for peer in self.peers}
        self.match_index[self.node_id] = self.last_log_index
        if self._election_event is not None:
            self._election_event.cancel()
            self._election_event = None
        self._broadcast_append_entries()
        self._start_heartbeats()

    def _become_follower(self, term: int, leader_id: Optional[str] = None) -> None:
        self.state = RaftState.FOLLOWER
        self.current_term = term
        self.voted_for = None
        self.leader_id = leader_id
        if self._heartbeat_event is not None:
            self._heartbeat_event.cancel()
            self._heartbeat_event = None
        self._reset_election_timer()

    def _has_majority(self, count: int) -> bool:
        cluster_size = len(self.peers) + 1
        return count > cluster_size // 2

    # -------------------------------------------------------- replication
    def _broadcast_append_entries(self) -> None:
        for peer in self.peers:
            self._send_append_entries(peer)

    def _send_append_entries(self, peer: str) -> None:
        next_idx = self.next_index.get(peer, len(self.log))
        prev_index = next_idx - 1
        prev_term = self.log[prev_index].term if prev_index >= 0 else 0
        entries = [
            {"term": e.term, "index": e.index, "payload": e.payload}
            for e in self.log[next_idx:]
        ]
        request = {
            "term": self.current_term,
            "leader_id": self.node_id,
            "prev_log_index": prev_index,
            "prev_log_term": prev_term,
            "entries": entries,
            "leader_commit": self.commit_index,
        }
        self._send(peer, "raft.append_entries", request)

    def _advance_commit_index(self) -> None:
        if self.state is not RaftState.LEADER:
            return
        for index in range(len(self.log) - 1, self.commit_index, -1):
            if self.log[index].term != self.current_term:
                continue
            replicas = sum(
                1 for node, match in self.match_index.items() if match >= index
            )
            if self._has_majority(replicas):
                self._commit_up_to(index)
                break

    def _commit_up_to(self, index: int) -> None:
        while self.commit_index < index:
            self.commit_index += 1
            entry = self.log[self.commit_index]
            entry.committed = True
            for callback in self._commit_callbacks:
                callback(entry)

    # ----------------------------------------------------------- messaging
    def _send(self, destination: str, msg_type: str, payload: Dict[str, Any]) -> None:
        try:
            self.network.send_later(
                self.node_id,
                destination,
                msg_type,
                payload,
                size_bytes=MESSAGE_SIZE_BYTES,
            )
        except Exception:  # noqa: BLE001 - unreachable peers are simply skipped
            return

    def _on_message(self, message: Message) -> None:
        handlers = {
            "raft.request_vote": self._handle_request_vote,
            "raft.request_vote_reply": self._handle_request_vote_reply,
            "raft.append_entries": self._handle_append_entries,
            "raft.append_entries_reply": self._handle_append_entries_reply,
        }
        handler = handlers.get(message.msg_type)
        if handler is not None:
            handler(message.source, message.payload)

    def _handle_request_vote(self, source: str, request: Dict[str, Any]) -> None:
        term = request["term"]
        if term > self.current_term:
            self._become_follower(term)
        granted = False
        if term >= self.current_term and self.voted_for in (None, request["candidate_id"]):
            log_ok = request["last_log_term"] > self.last_log_term or (
                request["last_log_term"] == self.last_log_term
                and request["last_log_index"] >= self.last_log_index
            )
            if log_ok:
                granted = True
                self.voted_for = request["candidate_id"]
                self._reset_election_timer()
        self._send(
            source,
            "raft.request_vote_reply",
            {"term": self.current_term, "granted": granted},
        )

    def _handle_request_vote_reply(self, source: str, reply: Dict[str, Any]) -> None:
        if self.state is not RaftState.CANDIDATE:
            return
        if reply["term"] > self.current_term:
            self._become_follower(reply["term"])
            return
        if reply.get("granted"):
            self._votes_received.add(source)
            if self._has_majority(len(self._votes_received)):
                self._become_leader()

    def _handle_append_entries(self, source: str, request: Dict[str, Any]) -> None:
        term = request["term"]
        if term < self.current_term:
            self._send(
                source,
                "raft.append_entries_reply",
                {"term": self.current_term, "success": False, "match_index": -1},
            )
            return
        if term > self.current_term or self.state is not RaftState.FOLLOWER:
            self._become_follower(term, leader_id=request["leader_id"])
        self.leader_id = request["leader_id"]
        self._reset_election_timer()

        prev_index = request["prev_log_index"]
        prev_term = request["prev_log_term"]
        if prev_index >= 0:
            if prev_index >= len(self.log) or self.log[prev_index].term != prev_term:
                self._send(
                    source,
                    "raft.append_entries_reply",
                    {"term": self.current_term, "success": False, "match_index": -1},
                )
                return

        # Append / overwrite entries.
        insert_at = prev_index + 1
        for offset, raw in enumerate(request["entries"]):
            index = insert_at + offset
            entry = LogEntry(term=raw["term"], index=index, payload=raw["payload"])
            if index < len(self.log):
                if self.log[index].term != entry.term:
                    del self.log[index:]
                    self.log.append(entry)
            else:
                self.log.append(entry)

        leader_commit = request["leader_commit"]
        if leader_commit > self.commit_index:
            self._commit_follower(min(leader_commit, len(self.log) - 1))

        self._send(
            source,
            "raft.append_entries_reply",
            {
                "term": self.current_term,
                "success": True,
                "match_index": len(self.log) - 1,
            },
        )

    def _commit_follower(self, index: int) -> None:
        while self.commit_index < index:
            self.commit_index += 1
            entry = self.log[self.commit_index]
            entry.committed = True

    def _handle_append_entries_reply(self, source: str, reply: Dict[str, Any]) -> None:
        if self.state is not RaftState.LEADER:
            return
        if reply["term"] > self.current_term:
            self._become_follower(reply["term"])
            return
        if reply["success"]:
            self.match_index[source] = max(
                self.match_index.get(source, -1), reply["match_index"]
            )
            self.next_index[source] = self.match_index[source] + 1
            self._advance_commit_index()
        else:
            self.next_index[source] = max(0, self.next_index.get(source, 1) - 1)
            self._send_append_entries(source)


class RaftOrderingService(OrderingService):
    """Ordering service backed by a Raft cluster.

    Cut batches are proposed to the current leader of a
    :data:`CLUSTER_SIZE`-node Raft cluster; the block is
    assembled and delivered when the corresponding log entry commits on the
    leader.  If no leader exists yet the batch is queued and re-proposed
    once an election completes.
    """

    def __init__(
        self,
        name: str,
        engine: SimulationEngine,
        network: NetworkFabric,
        rng: DeterministicRandom,
        batch_config: Optional[BatchConfig] = None,
        scheduler: Optional[OrderingScheduler] = None,
        intake_interval_s: float = 0.0,
    ) -> None:
        super().__init__(
            name,
            engine,
            batch_config,
            scheduler=scheduler,
            intake_interval_s=intake_interval_s,
        )
        node_ids = [f"{name}-raft-{i}" for i in range(CLUSTER_SIZE)]
        self.nodes: List[RaftNode] = [
            RaftNode(
                node_id=node_id,
                peers=node_ids,
                engine=engine,
                network=network,
                rng=rng.fork(node_id),
            )
            for node_id in node_ids
        ]
        self._pending_batches: List[List[Transaction]] = []
        self._delivered_entries: set = set()
        for node in self.nodes:
            node.on_commit(self._on_entry_committed)
            node.start()

    # ------------------------------------------------------------- plumbing
    @property
    def leader(self) -> Optional[RaftNode]:
        for node in self.nodes:
            if node.is_leader:
                return node
        return None

    def _order_batch(self, batch: List[Transaction]) -> None:
        leader = self.leader
        if leader is None:
            self._pending_batches.append(batch)
            # Try again shortly; an election should complete within a few
            # election timeouts.
            self.engine.schedule_in(0.05, self._drain_pending, label=f"{self.name}:retry-batch")
            return
        tx_ids = [tx.tx_id for tx in batch]
        self._batch_by_key(tx_ids, batch)
        leader.propose({"tx_ids": tx_ids})

    def _batch_by_key(self, tx_ids: List[str], batch: List[Transaction]) -> None:
        if not hasattr(self, "_batches_by_key"):
            self._batches_by_key: Dict[tuple, List[Transaction]] = {}
        self._batches_by_key[tuple(tx_ids)] = batch

    def _drain_pending(self) -> None:
        if not self._pending_batches:
            return
        leader = self.leader
        if leader is None:
            self.engine.schedule_in(0.05, self._drain_pending, label=f"{self.name}:retry-batch")
            return
        pending, self._pending_batches = self._pending_batches, []
        for batch in pending:
            self._order_batch(batch)

    def _on_entry_committed(self, entry: LogEntry) -> None:
        key = (entry.index, entry.term)
        if key in self._delivered_entries:
            return
        tx_ids = tuple(entry.payload.get("tx_ids", ()))
        batch = getattr(self, "_batches_by_key", {}).pop(tx_ids, None)
        if batch is None:
            # Commit callback fired on a node that does not hold the batch
            # payload (followers); only the proposing service delivers.
            return
        self._delivered_entries.add(key)
        block = self._assemble_block(batch)
        self._deliver_block(block)
