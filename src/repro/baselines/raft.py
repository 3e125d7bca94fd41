"""A Raft-style monolithic reconfigurable SMR (the OSS-dominant design).

This is the comparator the novelty note calls out: instead of composing
static instances, bake reconfiguration *into* the consensus protocol.
The implementation follows the Raft paper closely:

* terms, randomized election timeouts, majority voting with the
  up-to-date-log restriction;
* leader-driven log replication with the prev-index/prev-term consistency
  check and conflict-index backup;
* commit on majority match within the current term, with a no-op barrier
  entry appended on election;
* **single-server membership changes**: a configuration entry takes effect
  the moment it is appended (the Raft dissertation rule); arbitrary
  membership jumps must be decomposed into a sequence of single changes by
  the service facade — an honest representation of etcd-style systems and
  one of the measured differences from the paper's composition, which
  jumps to any membership in one step;
* log compaction and **InstallSnapshot** for catching up fresh servers, so
  Raft's joiner cost scales with application state size exactly like the
  composition's state transfer does (fair comparison in experiment T2).

Persistent state (term, vote, log, snapshot) lives in the process's
``stable`` dict and is restored by ``on_restart``, so Raft supports the
crash-recovery experiments natively.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.client import ClientReply, ClientRequest, Redirect
from repro.core.command import ReconfigCommand
from repro.core.statemachine import DedupStateMachine, StateMachine
from repro.errors import ProtocolError
from repro.sim.events import Timer
from repro.sim.node import Process
from repro.sim.runner import Simulator
from repro.types import Command, CommandId, Membership, NodeId, Time


# ---------------------------------------------------------------------------
# Wire messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RaftEntry:
    """One log entry: a term and a payload (command/config/noop barrier)."""

    term: int
    payload: Any


@dataclass(frozen=True, slots=True)
class RequestVote:
    term: int
    candidate: NodeId
    last_log_index: int
    last_log_term: int


@dataclass(frozen=True, slots=True)
class VoteReply:
    term: int
    granted: bool


@dataclass(frozen=True, slots=True)
class AppendEntries:
    term: int
    leader: NodeId
    prev_log_index: int
    prev_log_term: int
    entries: tuple[RaftEntry, ...]
    leader_commit: int


@dataclass(frozen=True, slots=True)
class AppendReply:
    term: int
    success: bool
    match_index: int
    conflict_index: int


@dataclass(frozen=True, slots=True)
class InstallSnapshot:
    term: int
    leader: NodeId
    last_index: int
    last_term: int
    config: Membership
    snapshot: Any
    snapshot_bytes: int


@dataclass(frozen=True, slots=True)
class InstallSnapshotReply:
    term: int
    match_index: int


#: a follower campaigns after a silence drawn from this range (seconds).
ELECTION_TIMEOUT_MIN = 0.15
ELECTION_TIMEOUT_MAX = 0.30
HEARTBEAT_INTERVAL = 0.025
MAX_ENTRIES_PER_APPEND = 64
#: compact the log once this many entries are applied past its base.
COMPACTION_THRESHOLD = 512
PROTOCOL_OVERHEAD_BYTES = 96


def _payload_size(payload: Any) -> int:
    return int(getattr(payload, "size", 32))


@dataclass(slots=True)
class _Noop:
    """Leader barrier entry appended at election (commits older terms)."""

    size: int = 16


class RaftReplica(Process):
    """One Raft server with membership change and snapshot catch-up."""

    def __init__(
        self,
        sim: Simulator,
        node: NodeId,
        app_factory: Callable[[], StateMachine],
        initial_config: Membership | None = None,
        commit_listener: Callable[[Time, Any, int, int, Any], None] | None = None,
    ):
        super().__init__(sim, node)
        self.app_factory = app_factory
        self.commit_listener = commit_listener
        self._rng = sim.rng.fork(f"raft/{node}")

        # Persistent state (mirrored into self.stable on every mutation).
        self.current_term = 0
        self.voted_for: NodeId | None = None
        self.log: list[RaftEntry] = []
        self.log_base = 1  # global index of log[0]
        self.snap_index = 0
        self.snap_term = 0
        self.snap_config: Membership | None = initial_config
        self.snap_data: Any = None

        # Volatile state.
        self.commit_index = 0
        self.last_applied = 0
        self.role = "follower"
        self.leader_hint: NodeId | None = None
        self.state = DedupStateMachine(app_factory())
        self.config: Membership = initial_config or Membership(frozenset())
        self.applied_config: Membership = self.config

        # Leader state.
        self.next_index: dict[NodeId, int] = {}
        self.match_index: dict[NodeId, int] = {}
        self._votes: set[NodeId] = set()
        self._cid_index: dict[CommandId, int] = {}

        # Client bookkeeping.
        self._pending: dict[CommandId, NodeId] = {}
        self._replies: dict[CommandId, tuple[Any, int, int]] = {}
        self.committed: list[tuple[Any, int, int]] = []

        self._election_timer: Timer | None = None
        self._hb_timer: Timer | None = None
        self._last_leader_contact = float("-inf")
        self._persist()

    # ------------------------------------------------------------------
    # Log helpers (global indices start at 1; entries below log_base are
    # compacted into the snapshot)
    # ------------------------------------------------------------------

    @property
    def last_log_index(self) -> int:
        return self.log_base + len(self.log) - 1

    def term_at(self, index: int) -> int | None:
        if index == self.snap_index:
            return self.snap_term
        if index == 0:
            return 0
        if index >= self.log_base and index <= self.last_log_index:
            return self.log[index - self.log_base].term
        return None

    def entry_at(self, index: int) -> RaftEntry:
        return self.log[index - self.log_base]

    def _persist(self) -> None:
        self.stable["term"] = self.current_term
        self.stable["voted_for"] = self.voted_for
        self.stable["log"] = list(self.log)
        self.stable["log_base"] = self.log_base
        self.stable["snap"] = (
            self.snap_index,
            self.snap_term,
            self.snap_config,
            self.snap_data,
        )

    def _recompute_config(self) -> None:
        """Membership = latest config entry in the log, else the snapshot's."""
        for entry in reversed(self.log):
            if isinstance(entry.payload, ReconfigCommand):
                self.config = entry.payload.new_members
                return
        self.config = self.snap_config or Membership(frozenset())

    # ------------------------------------------------------------------
    # Lifecycle & timers
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self._arm_election_timer()
        # The lowest-id member campaigns at once: a fast cold start.
        if len(self.config) > 0 and self.node == self.config.sorted_nodes()[0]:
            self.set_timer(
                self._rng.uniform(0.0, 0.01), self._start_election, label="bootstrap"
            )

    def on_restart(self) -> None:
        self.current_term = self.stable.get("term", 0)
        self.voted_for = self.stable.get("voted_for")
        self.log = list(self.stable.get("log", []))
        self.log_base = self.stable.get("log_base", 1)
        snap = self.stable.get("snap", (0, 0, None, None))
        self.snap_index, self.snap_term, self.snap_config, self.snap_data = snap
        self.role = "follower"
        self.leader_hint = None
        self.commit_index = self.snap_index
        self.last_applied = self.snap_index
        self.state = DedupStateMachine(self.app_factory())
        if self.snap_data is not None:
            self.state.restore(self.snap_data)
        self._recompute_config()
        self.applied_config = self.config
        self._pending.clear()
        self._arm_election_timer()

    def _arm_election_timer(self) -> None:
        if self._election_timer is not None:
            self._election_timer.cancel()
        if self.node not in self.config:
            return  # not a voter: never campaign
        delay = self._rng.uniform(ELECTION_TIMEOUT_MIN, ELECTION_TIMEOUT_MAX)
        self._election_timer = self.set_timer(
            delay, self._on_election_timeout, label="raft-election"
        )

    def _on_election_timeout(self) -> None:
        if self.role != "leader":
            self._start_election()
        self._arm_election_timer()

    # ------------------------------------------------------------------
    # Elections
    # ------------------------------------------------------------------

    def _start_election(self) -> None:
        if self.node not in self.config or self.role == "leader":
            return
        self.role = "candidate"
        self.current_term += 1
        self.voted_for = self.node
        self._votes = {self.node}
        self._persist()
        self.trace("raft-campaign", term=self.current_term)
        request = RequestVote(
            self.current_term, self.node, self.last_log_index,
            self.term_at(self.last_log_index) or 0,
        )
        for peer in self.config:
            if peer != self.node:
                self.send(peer, request, size=PROTOCOL_OVERHEAD_BYTES)
        if len(self._votes) >= self.config.quorum_size:
            self._become_leader()

    def _handle_request_vote(self, msg: RequestVote, sender: NodeId) -> None:
        # Vote stickiness (Raft dissertation §4.2.3): a server that has
        # heard from a live leader within the minimum election timeout —
        # or *is* the live leader — refuses to vote and does not adopt the
        # candidate's term. Without this, servers removed from the
        # configuration — which never learn of their removal — disrupt the
        # cluster with endless higher-term campaigns.
        recently_led = (
            self.role == "leader"
            or self.now - self._last_leader_contact < ELECTION_TIMEOUT_MIN
        )
        if recently_led and msg.candidate != self.leader_hint:
            self.send(
                sender,
                VoteReply(self.current_term, False),
                size=PROTOCOL_OVERHEAD_BYTES,
            )
            return
        if msg.term > self.current_term:
            self._adopt_term(msg.term)
        granted = False
        if msg.term == self.current_term and self.voted_for in (None, msg.candidate):
            my_last_term = self.term_at(self.last_log_index) or 0
            up_to_date = (msg.last_log_term, msg.last_log_index) >= (
                my_last_term,
                self.last_log_index,
            )
            if up_to_date:
                granted = True
                self.voted_for = msg.candidate
                self._persist()
                self._arm_election_timer()
        self.send(
            sender,
            VoteReply(self.current_term, granted),
            size=PROTOCOL_OVERHEAD_BYTES,
        )

    def _handle_vote_reply(self, msg: VoteReply, sender: NodeId) -> None:
        if msg.term > self.current_term:
            self._adopt_term(msg.term)
            return
        if self.role != "candidate" or msg.term != self.current_term or not msg.granted:
            return
        self._votes.add(sender)
        if len(self._votes) >= self.config.quorum_size:
            self._become_leader()

    def _become_leader(self) -> None:
        self.role = "leader"
        self.leader_hint = self.node
        self.trace("raft-leader", term=self.current_term)
        next_index = self.last_log_index + 1
        self.next_index = {peer: next_index for peer in self.config}
        self.match_index = {peer: 0 for peer in self.config}
        self.match_index[self.node] = self.last_log_index
        # Rebuild the dedup map from the surviving log.
        self._cid_index = {}
        for i, entry in enumerate(self.log):
            cid = getattr(entry.payload, "cid", None)
            if cid is not None:
                self._cid_index[cid] = self.log_base + i
        # No-op barrier: commits all prior-term entries once replicated.
        self._append_local(_Noop())
        self._broadcast_append()
        self._arm_heartbeat()

    def _adopt_term(self, term: int) -> None:
        self.current_term = term
        self.voted_for = None
        was_leader = self.role == "leader"
        self.role = "follower"
        if self.leader_hint == self.node:
            self.leader_hint = None  # never advertise ourselves once deposed
        self._persist()
        if was_leader and self._hb_timer is not None:
            self._hb_timer.cancel()
        self._arm_election_timer()

    # ------------------------------------------------------------------
    # Replication (leader side)
    # ------------------------------------------------------------------

    def _arm_heartbeat(self) -> None:
        if self._hb_timer is not None:
            self._hb_timer.cancel()
        self._hb_timer = self.set_timer(
            HEARTBEAT_INTERVAL, self._heartbeat_tick, label="raft-hb"
        )

    def _heartbeat_tick(self) -> None:
        if self.role != "leader":
            return
        self._broadcast_append()
        self._arm_heartbeat()

    def _append_local(self, payload: Any) -> int:
        entry = RaftEntry(self.current_term, payload)
        self.log.append(entry)
        index = self.last_log_index
        self.match_index[self.node] = index
        cid = getattr(payload, "cid", None)
        if cid is not None:
            self._cid_index[cid] = index
        if isinstance(payload, ReconfigCommand):
            self._recompute_config()
            self._on_config_changed_as_leader()
        self._persist()
        return index

    def _on_config_changed_as_leader(self) -> None:
        for peer in self.config:
            if peer not in self.next_index:
                self.next_index[peer] = self.last_log_index + 1
                self.match_index[peer] = 0

    def _broadcast_append(self) -> None:
        for peer in self.config:
            if peer != self.node:
                self._send_append(peer)

    def _send_append(self, peer: NodeId) -> None:
        next_index = self.next_index.get(peer, self.last_log_index + 1)
        if next_index <= self.snap_index:
            self._send_snapshot(peer)
            return
        prev_index = next_index - 1
        prev_term = self.term_at(prev_index)
        if prev_term is None:
            self._send_snapshot(peer)
            return
        end = min(self.last_log_index, next_index + MAX_ENTRIES_PER_APPEND - 1)
        entries = tuple(self.entry_at(i) for i in range(next_index, end + 1))
        size = PROTOCOL_OVERHEAD_BYTES + sum(
            _payload_size(e.payload) for e in entries
        )
        self.send(
            peer,
            AppendEntries(
                self.current_term, self.node, prev_index, prev_term, entries,
                self.commit_index,
            ),
            size=size,
        )

    def _send_snapshot(self, peer: NodeId) -> None:
        if self.snap_data is None:
            # Nothing compacted yet: capture the applied prefix on demand.
            self._compact(force=True)
            if self.snap_data is None:
                return  # nothing applied yet; plain appends will do
        size = self.state.snapshot_bytes()
        self.send(
            peer,
            InstallSnapshot(
                self.current_term, self.node, self.snap_index, self.snap_term,
                self.snap_config or self.config, deepcopy(self.snap_data), size,
            ),
            size=size + PROTOCOL_OVERHEAD_BYTES,
        )

    def _handle_append_reply(self, msg: AppendReply, sender: NodeId) -> None:
        if msg.term > self.current_term:
            self._adopt_term(msg.term)
            return
        if self.role != "leader" or msg.term != self.current_term:
            return
        if msg.success:
            self.match_index[sender] = max(self.match_index.get(sender, 0), msg.match_index)
            self.next_index[sender] = self.match_index[sender] + 1
            self._advance_commit()
            if self.next_index[sender] <= self.last_log_index:
                self._send_append(sender)  # keep streaming a lagging peer
        else:
            self.next_index[sender] = max(1, min(
                msg.conflict_index, self.next_index.get(sender, 2) - 1
            ))
            self._send_append(sender)

    def _handle_snapshot_reply(self, msg: InstallSnapshotReply, sender: NodeId) -> None:
        if msg.term > self.current_term:
            self._adopt_term(msg.term)
            return
        if self.role != "leader":
            return
        self.match_index[sender] = max(self.match_index.get(sender, 0), msg.match_index)
        self.next_index[sender] = self.match_index[sender] + 1
        self._send_append(sender)

    def _advance_commit(self) -> None:
        for candidate in range(self.last_log_index, self.commit_index, -1):
            if self.term_at(candidate) != self.current_term:
                break  # only current-term entries commit by counting
            votes = sum(
                1
                for peer in self.config
                if self.match_index.get(peer, 0) >= candidate
            )
            if votes >= self.config.quorum_size:
                self.commit_index = candidate
                self._apply_committed()
                break

    # ------------------------------------------------------------------
    # Replication (follower side)
    # ------------------------------------------------------------------

    def _handle_append_entries(self, msg: AppendEntries, sender: NodeId) -> None:
        if msg.term < self.current_term:
            self.send(
                sender,
                AppendReply(self.current_term, False, 0, self.last_log_index + 1),
                size=PROTOCOL_OVERHEAD_BYTES,
            )
            return
        if msg.term > self.current_term or self.role != "follower":
            self._adopt_term(msg.term)
        self.leader_hint = msg.leader
        self._last_leader_contact = self.now
        self._arm_election_timer()

        if msg.prev_log_index > self.last_log_index:
            self.send(
                sender,
                AppendReply(self.current_term, False, 0, self.last_log_index + 1),
                size=PROTOCOL_OVERHEAD_BYTES,
            )
            return
        local_prev_term = self.term_at(msg.prev_log_index)
        if local_prev_term is None:
            # prev is inside our compacted region: everything up to
            # snap_index is known good; ask the leader to resume there.
            self.send(
                sender,
                AppendReply(self.current_term, False, 0, self.snap_index + 1),
                size=PROTOCOL_OVERHEAD_BYTES,
            )
            return
        if local_prev_term != msg.prev_log_term:
            # Back up to the start of the conflicting term.
            conflict = msg.prev_log_index
            while (
                conflict - 1 >= self.log_base
                and self.term_at(conflict - 1) == local_prev_term
            ):
                conflict -= 1
            del self.log[msg.prev_log_index - self.log_base:]
            self._recompute_config()
            self._persist()
            self.send(
                sender,
                AppendReply(self.current_term, False, 0, conflict),
                size=PROTOCOL_OVERHEAD_BYTES,
            )
            return

        changed = False
        for offset, entry in enumerate(msg.entries):
            index = msg.prev_log_index + 1 + offset
            if index <= self.snap_index:
                continue  # already covered by our snapshot
            if index <= self.last_log_index:
                if self.entry_at(index).term != entry.term:
                    del self.log[index - self.log_base:]
                    self.log.append(entry)
                    changed = True
            else:
                self.log.append(entry)
                changed = True
        if changed:
            self._recompute_config()
            self._persist()
            self._arm_election_timer()

        match = msg.prev_log_index + len(msg.entries)
        if msg.leader_commit > self.commit_index:
            self.commit_index = min(msg.leader_commit, self.last_log_index)
            self._apply_committed()
        self.send(
            sender,
            AppendReply(self.current_term, True, match, 0),
            size=PROTOCOL_OVERHEAD_BYTES,
        )

    def _handle_install_snapshot(self, msg: InstallSnapshot, sender: NodeId) -> None:
        if msg.term < self.current_term:
            self.send(
                sender,
                InstallSnapshotReply(self.current_term, 0),
                size=PROTOCOL_OVERHEAD_BYTES,
            )
            return
        if msg.term > self.current_term or self.role != "follower":
            self._adopt_term(msg.term)
        self.leader_hint = msg.leader
        self._last_leader_contact = self.now
        self._arm_election_timer()
        if msg.last_index > self.snap_index:
            self.snap_index = msg.last_index
            self.snap_term = msg.last_term
            self.snap_config = msg.config
            self.snap_data = msg.snapshot
            # Keep any log suffix that extends past the snapshot.
            if self.last_log_index > msg.last_index and self.term_at(msg.last_index) == msg.last_term:
                self.log = self.log[msg.last_index + 1 - self.log_base:]
            else:
                self.log = []
            self.log_base = msg.last_index + 1
            self.state = DedupStateMachine(self.app_factory())
            self.state.restore(msg.snapshot)
            self.commit_index = max(self.commit_index, msg.last_index)
            self.last_applied = msg.last_index
            self._recompute_config()
            self._persist()
            self.trace("raft-snapshot-installed", upto=msg.last_index)
        self.send(
            sender,
            InstallSnapshotReply(self.current_term, self.snap_index),
            size=PROTOCOL_OVERHEAD_BYTES,
        )

    # ------------------------------------------------------------------
    # Apply & compaction
    # ------------------------------------------------------------------

    def _apply_committed(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            if self.last_applied < self.log_base:
                continue  # covered by an installed snapshot
            entry = self.entry_at(self.last_applied)
            payload = entry.payload
            value: Any = None
            if isinstance(payload, Command):
                value = self.state.apply(payload)
                self._complete(payload.cid, value)
            elif isinstance(payload, ReconfigCommand):
                self.applied_config = payload.new_members
                value = f"config:{payload.new_members}"
                self._complete(payload.cid, value)
                if self.role == "leader" and self.node not in payload.new_members:
                    # The removed-leader rule: finish committing the change,
                    # then step aside.
                    self.role = "follower"
                    self.leader_hint = None
                    if self._hb_timer is not None:
                        self._hb_timer.cancel()
            self.committed.append((payload, entry.term, self.last_applied))
            if self.commit_listener is not None:
                self.commit_listener(
                    self.now, payload, entry.term, self.last_applied, value
                )
        self._maybe_compact()

    def _complete(self, cid: CommandId, value: Any) -> None:
        self._replies[cid] = (value, self.current_term, self.last_applied)
        client = self._pending.pop(cid, None)
        if client is not None:
            self.send(
                client,
                ClientReply(cid, value, self.current_term, self.last_applied),
                size=128,
            )

    def _maybe_compact(self) -> None:
        if self.last_applied - (self.log_base - 1) >= COMPACTION_THRESHOLD:
            self._compact()

    def _compact(self, force: bool = False) -> None:
        if self.last_applied <= self.snap_index:
            return
        if not force and self.last_applied - (self.log_base - 1) < 2:
            return
        term = self.term_at(self.last_applied)
        if term is None:
            return
        self.snap_data = self.state.snapshot()
        self.snap_term = term
        self.snap_config = self.applied_config
        cut = self.last_applied + 1 - self.log_base
        self.log = self.log[cut:]
        self.snap_index = self.last_applied
        self.log_base = self.last_applied + 1
        self._persist()
        self.trace("raft-compact", upto=self.snap_index)

    # ------------------------------------------------------------------
    # Clients & reconfiguration
    # ------------------------------------------------------------------

    def _handle_client_request(self, request: ClientRequest) -> None:
        command = request.command
        cached = self._replies.get(command.cid)
        if cached is not None:
            value, term, index = cached
            self.send(request.reply_to, ClientReply(command.cid, value, term, index), size=128)
            return
        if self.role != "leader":
            members = (
                Membership(frozenset({self.leader_hint}))
                if self.leader_hint is not None
                else self.config
            )
            self.send(
                request.reply_to,
                Redirect(command.cid, members, self.current_term),
                size=128,
            )
            return
        self._pending[command.cid] = request.reply_to
        existing = self._cid_index.get(command.cid)
        if existing is None:
            self._append_local(command)
        self._broadcast_append()
        if len(self.config) == 1:
            self.commit_index = self.last_log_index
            self._apply_committed()

    def request_reconfiguration(self, command: ReconfigCommand) -> bool:
        """Submit a membership change (must be a single-server change)."""
        if self.role != "leader":
            return False
        if command.cid in self._cid_index or command.cid in self._replies:
            return True
        delta = len(
            self.config.nodes.symmetric_difference(command.new_members.nodes)
        )
        if delta > 1:
            raise ProtocolError(
                "Raft membership changes must add or remove a single server; "
                "decompose larger changes (see RaftService.reconfigure)"
            )
        self._append_local(command)
        self._broadcast_append()
        if len(self.config) == 1 and self.node in self.config:
            self.commit_index = self.last_log_index
            self._apply_committed()
        return True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def on_message(self, payload: Any, sender: NodeId) -> None:
        if isinstance(payload, AppendEntries):
            self._handle_append_entries(payload, sender)
        elif isinstance(payload, AppendReply):
            self._handle_append_reply(payload, sender)
        elif isinstance(payload, RequestVote):
            self._handle_request_vote(payload, sender)
        elif isinstance(payload, VoteReply):
            self._handle_vote_reply(payload, sender)
        elif isinstance(payload, InstallSnapshot):
            self._handle_install_snapshot(payload, sender)
        elif isinstance(payload, InstallSnapshotReply):
            self._handle_snapshot_reply(payload, sender)
        elif isinstance(payload, ClientRequest):
            self._handle_client_request(payload)
