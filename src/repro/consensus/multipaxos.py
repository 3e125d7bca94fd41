"""Static Multi-Paxos: the primary non-reconfigurable SMR building block.

One :class:`MultiPaxosEngine` instance runs at each member of a **fixed**
membership and provides the :class:`repro.consensus.interface.SmrEngine`
contract: best-effort ``propose``, gap-free in-order decisions out.

Protocol summary
----------------

* Every member is acceptor + learner; any member may campaign to lead.
* Ballots are ``(round, node)``; a candidate runs **one** Phase 1 covering
  all slots at or above its delivery watermark (the classic Multi-Paxos
  amortisation), then leads Phase 2 per slot.
* On winning, the leader re-proposes every value reported accepted by its
  promise quorum (highest ballot wins per slot) and fills unreported gaps
  below the horizon with ``Noop`` — the standard recovery rule that makes
  leader turnover safe.
* The leader heartbeats followers; heartbeats carry the decided watermark,
  and lagging learners pull missing decisions with catch-up requests, so
  dropped ``Decide`` messages heal.
* Followers forward proposals to their current leader hint and retry on a
  timer; leaders deduplicate by :func:`repro.consensus.interface.proposal_key`
  so client/host retries do not burn extra slots in the common case.

Fail-stop is the failure model (crashed members never come back with the
same identity). This is exactly the regime the paper targets: *recovering
a member is done by reconfiguring*, which is the job of the layer above,
not of this building block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable

from repro.consensus.ballot import Ballot
from repro.consensus.heartbeat import HeartbeatMonitor
from repro.consensus.interface import Batch, Noop, SmrEngine, Transport, proposal_key
from repro.consensus.log import DecidedLog
from repro.consensus import messages as m
from repro.errors import ConfigurationError
from repro.sim.events import Timer
from repro.types import Decision, Membership, NodeId, Slot


def payload_size(value: Any) -> int:
    """Approximate wire size of a proposable payload, in bytes."""
    return int(getattr(value, "size", 64))


#: leader heartbeat period (simulated seconds); also the least gap
#: between two catch-up requests of one learner.
HEARTBEAT_INTERVAL = 0.025
#: period of the follower's re-forward and the leader's re-accept sweep.
PROPOSAL_RETRY_INTERVAL = 0.10
#: an unanswered Accept is re-sent once it is this old at a sweep.
ACCEPT_RESEND_AFTER = 0.05
#: most decided slots one CatchupReply carries.
CATCHUP_BATCH = 200
#: the lowest member's first campaign waits up to this long (jitter).
INITIAL_CAMPAIGN_DELAY_MAX = 0.005
#: bytes every engine message is charged beyond its payload (sim).
PROTOCOL_OVERHEAD_BYTES = 96


@dataclass(slots=True)
class PaxosParams:
    """Tunable timing/batching parameters (simulated seconds)."""

    #: a follower suspects a silent leader after a random delay drawn
    #: from ``[suspect_timeout_min, 2 * suspect_timeout_min]``.
    suspect_timeout_min: float = 0.10
    #: leader-side batching: commands admitted in the same tick (one
    #: inbound frame or chunk, one sim instant) always share a slot and
    #: its Phase-2 round trip. ``batch_delay`` bounds how long commands
    #: arriving while a slot is in flight are held behind the busy
    #: pipeline to share the next one; 0 holds nothing behind it. An idle
    #: pipeline never holds a command either way.
    batch_delay: float = 0.0
    #: most commands one slot carries; 1 = one slot per command.
    batch_max: int = 32
    #: proposer pipeline window: max Phase-2 slots open concurrently.
    #: When the window is full, batchable commands stay buffered past
    #: ``batch_delay`` and ride the next freed slot together. Non-batchable
    #: payloads (reconfigurations, noops) bypass the cap — a membership
    #: change must never wait behind client traffic. 0 = unbounded.
    window: int = 0
    #: read-lease validity granted per acknowledged heartbeat. Must stay
    #: strictly below suspect_timeout_min: a follower that just granted a
    #: lease slice will not campaign (nor, via vote stickiness, vote for a
    #: challenger) until the lease has expired, which is what makes local
    #: reads at the leaseholder linearizable. Set to 0 to disable leases.
    lease_duration: float = 0.08


@dataclass(slots=True)
class _InFlight:
    """Leader-side bookkeeping for one slot awaiting a quorum of accepts."""

    value: Any
    acks: set[NodeId] = field(default_factory=set)
    sent_at: float = 0.0


class MultiPaxosEngine(SmrEngine):
    """One member's slice of a static Multi-Paxos instance."""

    def __init__(
        self,
        transport: Transport,
        membership: Membership,
        on_decide: Callable[[Decision], None],
        params: PaxosParams | None = None,
    ):
        super().__init__(transport, membership, on_decide)
        self.params = params if params is not None else PaxosParams()
        self.quorum = membership.quorum_size
        self.peers = membership.sorted_nodes()

        # Acceptor state.
        self.promised: Ballot = Ballot.ZERO
        self.accepted: dict[Slot, tuple[Ballot, Any]] = {}

        # Learner state.
        self.log = DecidedLog(on_decide)

        # Leadership state.
        self.is_leader = False
        self.ballot: Ballot = Ballot.ZERO  # our own campaign/leading ballot
        self.max_round_seen = 0
        self.leader_hint: NodeId | None = None
        self._campaigning = False
        self._promises: dict[NodeId, m.Promise] = {}
        self._campaign_base: Slot = 0
        self.next_slot: Slot = 0
        self.inflight: dict[Slot, _InFlight] = {}
        self.assigned_keys: dict[Any, Slot] = {}

        # Proposal routing state (every node).
        self.awaiting: dict[Any, Any] = {}  # key -> payload, retried until decided

        self._monitor = HeartbeatMonitor(
            transport,
            self.params.suspect_timeout_min,
            self._campaign,
        )
        self._hb_timer: Timer | None = None
        self._retry_timer: Timer | None = None
        self._last_catchup_request = -1.0
        #: leader-side batching buffer (commands awaiting a shared slot)
        #: and their keys, in the same order (a dict keeps it).
        self._batch: list[Any] = []
        self._batch_keys: dict[Any, None] = {}
        self._batch_timer: Timer | None = None
        #: when the open batch got its first command (paxos.batch_wait:
        #: one sample per slot flushed, first buffered command -> flush).
        self._batch_opened_at = 0.0
        #: follower -> newest heartbeat send-time it acknowledged.
        self._hb_echoes: dict[NodeId, float] = {}
        self._last_leader_contact = float("-inf")
        # Commit-path instruments, shared with every engine on this host's
        # runtime (per-process in live clusters, cluster-wide in the sim).
        metrics = transport.metrics
        self._m_proposals = metrics.counter("paxos.proposals")
        self._m_accepts = metrics.counter("paxos.accepts_sent")
        self._m_decided = metrics.counter("paxos.decided")
        self._m_campaigns = metrics.counter("paxos.campaigns")
        self._m_elections = metrics.counter("paxos.elections")
        self._m_batch_size = metrics.histogram("paxos.batch_size")
        self._m_batch_wait = metrics.histogram("paxos.batch_wait")
        if self.params.batch_max < 1:
            raise ConfigurationError("batch_max must be at least 1 command per slot")
        if self.params.lease_duration >= self.params.suspect_timeout_min:
            raise ConfigurationError(
                "lease_duration must be strictly below suspect_timeout_min "
                "or a new leader could be elected inside a live lease"
            )
        # Durable acceptor/learner state (null handle on storage-less
        # hosts). Restoring here, at the end of construction, means a
        # recovered engine is indistinguishable from a live one by the
        # time the host sees it.
        self.durable = transport.durability
        recovered = self.durable.recover()
        if recovered is not None:
            self._restore_durable(recovered)

    # -- factory ---------------------------------------------------------------

    @classmethod
    def factory(cls, params: PaxosParams | None = None):
        """Build an :data:`EngineFactory` closing over shared parameters."""

        def make(
            transport: Transport,
            membership: Membership,
            on_decide: Callable[[Decision], None],
        ) -> "MultiPaxosEngine":
            return cls(transport, membership, on_decide, params=params)

        return make

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        self._monitor.start()
        self._arm_retry_timer()
        # The lowest member id campaigns immediately so fresh instances
        # elect a leader in one round trip instead of one suspicion timeout.
        if self.transport.node == self.peers[0]:
            delay = self.transport.rng.uniform(0.0, INITIAL_CAMPAIGN_DELAY_MAX)
            self.transport.set_timer(delay, self._campaign, label="initial-campaign")

    def stop(self) -> None:
        super().stop()
        self._monitor.stop()
        if self._hb_timer is not None:
            self._hb_timer.cancel()
        if self._retry_timer is not None:
            self._retry_timer.cancel()
        if self._batch_timer is not None:
            self._batch_timer.cancel()

    def restart(self) -> None:
        # Acceptor and learner state is the modelled stable storage;
        # leadership, a campaign and its in-flight slots are volatile.
        super().restart()
        self._step_down(self.ballot)

    def leads(self) -> bool:
        return self.is_leader and not self.stopped

    @property
    def next_undelivered_slot(self) -> Slot:
        return self.log.next_to_deliver

    # -- proposing ------------------------------------------------------------------

    def propose(self, payload: Any) -> None:
        if self.stopped:
            return
        self._m_proposals.inc()
        key = proposal_key(payload)
        if key is None:
            self._route(payload, None)
            return
        slot = self.assigned_keys.get(key)
        if slot is not None and self.log.is_decided(slot):
            if self._carries(slot, key):
                return  # decided locally: retrying would only burn a duplicate slot
            slot = None  # _carries dropped the stale assignment
        awaiting = self.awaiting
        waiting = len(awaiting)
        awaiting.setdefault(key, payload)
        # A key new to ``awaiting`` with no slot is not buffered either
        # (buffered keys are awaiting keys, and a key leaves ``awaiting``
        # only once it has a slot): _assign may skip its duplicate checks.
        self._route(payload, key, fresh=slot is None and len(awaiting) > waiting)

    def _key_settled(self, key: Any) -> bool:
        slot = self.assigned_keys.get(key)
        return slot is not None and self.log.is_decided(slot) and self._carries(slot, key)

    def _carries(self, slot: Slot, key: Any) -> bool:
        """Whether decided ``slot`` carries ``key``. Only a deposed leader
        can find that it does not: it assigned the key to a slot that the
        next leader filled with other values. That assignment is dropped,
        so the key is proposed afresh. Called on the retry paths only,
        never for a fresh key."""
        value = self.log.value(slot)
        inner = value.payloads if isinstance(value, Batch) else (value,)
        if key in map(proposal_key, inner):
            return True
        del self.assigned_keys[key]
        return False

    def _route(self, payload: Any, key: Any, fresh: bool = False) -> None:
        if self.is_leader:
            self._assign(payload, key, fresh)
        elif self.leader_hint is not None and self.leader_hint != self.transport.node:
            self.transport.send(
                self.leader_hint,
                m.ProposeForward(payload),
                size=PROTOCOL_OVERHEAD_BYTES + payload_size(payload),
            )
        # else: no leader known yet; the retry timer re-routes later.

    def _assign(self, payload: Any, key: Any, fresh: bool = False) -> None:
        """Leader: admit ``payload`` (its proposal key is ``key``) — into the
        batch buffer if it may share a slot, else into a fresh slot of its
        own — and run Phase 2. A ``fresh`` key is known to be neither
        buffered nor assigned."""
        if key is not None and not fresh:
            if key in self._batch_keys:
                return  # already buffered in the open batch
            existing = self.assigned_keys.get(key)
            if existing is not None and (
                existing in self.inflight
                or (self.log.is_decided(existing) and self._carries(existing, key))
            ):
                return  # duplicate submission
        # Only plain client commands batch; a payload that must own its
        # slot (seal semantics, filler) declares ``batchable = False``.
        if key is not None and getattr(payload, "batchable", True):
            if not self._batch:
                self._batch_opened_at = self.transport.now
            self._batch.append(payload)
            self._batch_keys[key] = None
            if len(self._batch) >= self.params.batch_max:
                self._flush_batch()
            elif self._batch_timer is None or not self._batch_timer.active:
                # Nagle's rule with slots for segments: hold commands only
                # behind a slot in flight (its decision flushes them, see
                # _handle_accepted; batch_delay bounds the hold, and 0
                # holds nothing). With nothing in flight there is nothing
                # to wait for, and the zero-delay timer fires once the
                # frame or chunk that carried this command has been
                # admitted whole.
                self._batch_timer = self.transport.set_timer(
                    self.params.batch_delay if self.inflight else 0.0,
                    self._flush_batch,
                    label="batch",
                )
            return
        # Non-batchable payloads (reconfigurations, noops) must own their
        # slot and must not overtake buffered commands: flush first, past
        # the window cap if need be — a reconfiguration must never park
        # behind client traffic.
        self._flush_batch(force=True)
        slot = self.next_slot
        self.next_slot += 1
        if key is not None:
            self.assigned_keys[key] = slot
        self._send_accepts(slot, payload)

    def _window_full(self) -> bool:
        return self.params.window > 0 and len(self.inflight) >= self.params.window

    def _flush_batch(self, force: bool = False) -> None:
        """Drain the batch buffer into Phase-2 slots.

        Emits slots of up to ``batch_max`` commands while the pipeline
        window has room; with ``force=True`` the window cap is ignored
        (used when a non-batchable payload must not overtake buffered
        commands). Whatever cannot be emitted stays buffered and rides
        the next freed slot — that is the adaptive-batching backpressure
        path.
        """
        if not self._batch:
            return
        if self._batch_timer is not None:
            self._batch_timer.cancel()
        while self._batch and (force or not self._window_full()):
            chunk = self._batch[: self.params.batch_max]
            del self._batch[: len(chunk)]
            if self._batch:
                keys = dict.fromkeys(islice(self._batch_keys, len(chunk)))
                for key in keys:
                    del self._batch_keys[key]
            else:
                keys, self._batch_keys = self._batch_keys, {}
            slot = self.next_slot
            self.next_slot += 1
            value: Any = chunk[0] if len(chunk) == 1 else Batch(tuple(chunk))
            # Dict to dict: the keys' stored hashes are reused, so no
            # key is hashed again here.
            self.assigned_keys.update(dict.fromkeys(keys, slot))
            self._m_batch_size.record(len(chunk))
            self._m_batch_wait.record(self.transport.now - self._batch_opened_at)
            self._send_accepts(slot, value)

    def _send_accepts(self, slot: Slot, value: Any, only: set[NodeId] | None = None) -> None:
        entry = self.inflight.get(slot)
        if entry is None:
            entry = _InFlight(value=value)
            self.inflight[slot] = entry
        entry.sent_at = self.transport.now
        accept = m.Accept(self.ballot, slot, value)
        size = PROTOCOL_OVERHEAD_BYTES + payload_size(value)
        targets = self.peers if only is None else [p for p in self.peers if p in only]
        self._m_accepts.inc(len(targets))
        self.transport.broadcast(targets, accept, size=size)
        if self.transport.node in targets:
            self._handle_accept(accept, self.transport.node)

    # -- leader election ---------------------------------------------------------------

    def _campaign(self) -> None:
        if self.stopped or self.is_leader:
            return
        self._campaigning = True
        self._m_campaigns.inc()
        round_number = self.max_round_seen + 1
        self.max_round_seen = round_number
        self.ballot = Ballot(round_number, self.transport.node)
        self._promises.clear()
        self._campaign_base = self.log.next_to_deliver
        self.transport.trace("campaign", ballot=str(self.ballot), base=self._campaign_base)
        prepare = m.Prepare(self.ballot, self._campaign_base)
        self.transport.broadcast(
            self.peers, prepare, size=PROTOCOL_OVERHEAD_BYTES
        )
        self._handle_prepare(prepare, self.transport.node)

    def _become_leader(self) -> None:
        self._campaigning = False
        self.is_leader = True
        self._m_elections.inc()
        self.leader_hint = self.transport.node
        self._monitor.stop()
        # A fresh term must anchor its read lease on its *own* heartbeat
        # echoes. _step_down clears these too, but relying on that alone
        # leaves a trap: any future path that re-wins leadership without
        # a full step-down in between would inherit echoes from the
        # previous term and could report a lease it never earned.
        self._hb_echoes.clear()
        self.transport.trace("leader-elected", ballot=str(self.ballot))

        # Merge quorum knowledge: per slot, the highest-ballot accepted value
        # must be re-proposed; locally known decisions win outright.
        merged: dict[Slot, tuple[Ballot, Any]] = {}
        for promise in self._promises.values():
            for slot, ballot, value in promise.accepted:
                current = merged.get(slot)
                if current is None or ballot > current[0]:
                    merged[slot] = (ballot, value)
        horizon = self._campaign_base - 1
        if merged:
            horizon = max(horizon, max(merged))
        if self.log.max_decided > horizon:
            horizon = self.log.max_decided

        self.inflight.clear()
        for slot in range(self._campaign_base, horizon + 1):
            if self.log.is_decided(slot):
                value = self.log.value(slot)
            elif slot in merged:
                value = merged[slot][1]
            else:
                value = Noop("gap")
            key = proposal_key(value)
            if key is not None:
                self.assigned_keys[key] = slot
            self._send_accepts(slot, value)
        self.next_slot = horizon + 1

        self._heartbeat_tick()
        # Re-route everything we were asked to propose but that never made
        # it through the previous leader.
        for key, payload in list(self.awaiting.items()):
            self._route(payload, key)

    def _step_down(self, observed: Ballot) -> None:
        if observed.round > self.max_round_seen:
            self.max_round_seen = observed.round
        was_leader = self.is_leader
        self.is_leader = False
        self._campaigning = False
        self.inflight.clear()
        self._hb_echoes.clear()
        self._batch.clear()
        self._batch_keys.clear()
        if self._batch_timer is not None:
            self._batch_timer.cancel()
        if was_leader:
            self.transport.trace("leader-stepdown", observed=str(observed))
            if self._hb_timer is not None:
                self._hb_timer.cancel()
            self._monitor.start()

    # -- heartbeats -----------------------------------------------------------------------

    def _heartbeat_tick(self) -> None:
        if self.stopped or not self.is_leader:
            return
        beat = m.Heartbeat(self.ballot, self.log.max_decided, sent_at=self.transport.now)
        self.transport.broadcast(
            self.peers, beat, size=PROTOCOL_OVERHEAD_BYTES
        )
        # Nudge stuck Phase-2 slots (lost Accept/Accepted messages).
        now = self.transport.now
        for slot, entry in list(self.inflight.items()):
            if now - entry.sent_at >= ACCEPT_RESEND_AFTER:
                missing = {p for p in self.peers if p not in entry.acks}
                self._send_accepts(slot, entry.value, only=missing)
        self._hb_timer = self.transport.set_timer(
            HEARTBEAT_INTERVAL, self._heartbeat_tick, label="hb"
        )

    def _arm_retry_timer(self) -> None:
        if self.stopped:
            return
        self._retry_timer = self.transport.set_timer(
            PROPOSAL_RETRY_INTERVAL, self._retry_tick, label="proposal-retry"
        )

    def _retry_tick(self) -> None:
        if self.stopped:
            return
        # A leader re-routes only what it holds nowhere: a buffered key or
        # one whose slot is in flight is _assign's duplicate (the heartbeat
        # tick resends in-flight slots), a decided one is pruned.
        leading = self.is_leader
        for key, payload in list(self.awaiting.items()):
            if self._key_settled(key):
                del self.awaiting[key]
            elif not leading or not (
                key in self._batch_keys or self.assigned_keys.get(key) in self.inflight
            ):
                self._route(payload, key)
        self._arm_retry_timer()

    # -- message dispatch ---------------------------------------------------------------------

    def on_message(self, inner: Any, sender: NodeId) -> None:
        if self.stopped:
            return
        if isinstance(inner, m.Prepare):
            self._handle_prepare(inner, sender)
        elif isinstance(inner, m.Promise):
            self._handle_promise(inner, sender)
        elif isinstance(inner, m.PrepareNack):
            self._handle_prepare_nack(inner, sender)
        elif isinstance(inner, m.Accept):
            self._handle_accept(inner, sender)
        elif isinstance(inner, m.Accepted):
            self._handle_accepted(inner, sender)
        elif isinstance(inner, m.AcceptNack):
            self._handle_accept_nack(inner, sender)
        elif isinstance(inner, m.Decide):
            self._record_decision(inner.slot, inner.value)
        elif isinstance(inner, m.Heartbeat):
            self._handle_heartbeat(inner, sender)
        elif isinstance(inner, m.HeartbeatAck):
            self._handle_heartbeat_ack(inner, sender)
        elif isinstance(inner, m.ProposeForward):
            self.propose(inner.payload)
        elif isinstance(inner, m.CatchupRequest):
            self._handle_catchup_request(inner, sender)
        elif isinstance(inner, m.CatchupReply):
            for slot, value in inner.entries:
                self._record_decision(slot, value)

    # -- acceptor ----------------------------------------------------------------------------

    def _handle_prepare(self, msg: m.Prepare, sender: NodeId) -> None:
        # Vote stickiness: while we are hearing from a live leader (or are
        # the leader), refuse challengers without raising our promise —
        # this is what makes the read lease sound, and it also damps
        # disruptive campaigns. The challenger's own suspicion timeout
        # guarantees it only campaigns once real silence has elapsed.
        recently_led = self.is_leader or (
            self.transport.now - self._last_leader_contact
            < self.params.suspect_timeout_min
        )
        if recently_led and msg.ballot.proposer != self.leader_hint:
            self._reply(sender, m.PrepareNack(msg.ballot, self.promised))
            return
        if msg.ballot.round > self.max_round_seen:
            self.max_round_seen = msg.ballot.round
        if msg.ballot > self.promised:
            self.promised = msg.ballot
            # Durable before the Promise leaves: a crash after this line
            # restores an acceptor that still honours what it said here.
            self.durable.record_promise(msg.ballot)
            # Granting a promise re-arms suspicion, the usual duel damper.
            self._monitor.heard_from_leader()
            accepted = tuple(
                (slot, ballot, value)
                for slot, (ballot, value) in sorted(self.accepted.items())
                if slot >= msg.base_slot
            )
            reply = m.Promise(msg.ballot, msg.base_slot, accepted)
        else:
            reply = m.PrepareNack(msg.ballot, self.promised)
        self._reply(sender, reply)

    def _handle_accept(self, msg: m.Accept, sender: NodeId) -> None:
        if msg.ballot.round > self.max_round_seen:
            self.max_round_seen = msg.ballot.round
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            self.accepted[msg.slot] = (msg.ballot, msg.value)
            # Durable before the Accepted vote leaves the process.
            self.durable.record_accept(msg.slot, msg.ballot, msg.value)
            self.leader_hint = msg.ballot.proposer
            self._last_leader_contact = self.transport.now
            self._monitor.heard_from_leader()
            self._reply(sender, m.Accepted(msg.ballot, msg.slot))
        else:
            self._reply(sender, m.AcceptNack(msg.ballot, msg.slot, self.promised))

    def _reply(self, dest: NodeId, reply: Any) -> None:
        if dest == self.transport.node:
            self.on_message(reply, dest)
        else:
            self.transport.send(dest, reply, size=PROTOCOL_OVERHEAD_BYTES)

    # -- candidate / leader ---------------------------------------------------------------------

    def _handle_promise(self, msg: m.Promise, sender: NodeId) -> None:
        if not self._campaigning or msg.ballot != self.ballot:
            return
        self._promises[sender] = msg
        if len(self._promises) >= self.quorum:
            self._become_leader()

    def _handle_prepare_nack(self, msg: m.PrepareNack, sender: NodeId) -> None:
        if msg.ballot != self.ballot:
            return
        if msg.promised > self.ballot:
            self._step_down(msg.promised)

    def _handle_accepted(self, msg: m.Accepted, sender: NodeId) -> None:
        if not self.is_leader or msg.ballot != self.ballot:
            return
        entry = self.inflight.get(msg.slot)
        if entry is None:
            return
        entry.acks.add(sender)
        if len(entry.acks) >= self.quorum:
            value = entry.value
            del self.inflight[msg.slot]
            self._record_decision(msg.slot, value)
            decide = m.Decide(msg.slot, value)
            size = PROTOCOL_OVERHEAD_BYTES + payload_size(value)
            self.transport.broadcast(self.peers, decide, size=size)
            # A slot just left the pipeline window; commands that were
            # buffered behind it ride out now as one batch — unless other
            # slots are still in flight and a live batch timer is still
            # gathering within its latency bound.
            if self._batch and (
                not self.inflight
                or len(self._batch) >= self.params.batch_max
                or self._batch_timer is None
                or not self._batch_timer.active
            ):
                self._flush_batch()

    def _handle_accept_nack(self, msg: m.AcceptNack, sender: NodeId) -> None:
        if msg.ballot != self.ballot:
            return
        if msg.promised > self.ballot:
            self._step_down(msg.promised)

    # -- recovery -----------------------------------------------------------------------------------

    def _restore_durable(self, state) -> None:
        """Resume from recovered acceptor/learner state (boot-time only).

        The acceptor watermarks come back verbatim; decided slots replay
        through :meth:`_record_decision`, so the host observes them in
        the usual ``on_decide`` order (the durability handle's dedup
        mirror makes the re-record a no-op). Round watermarks feed
        ``max_round_seen`` so a future campaign of ours starts above
        every ballot we ever acknowledged.
        """
        self.promised = state.promised
        self.accepted = dict(state.accepted)
        rounds = [self.max_round_seen, self.promised.round]
        rounds.extend(ballot.round for ballot, _ in state.accepted.values())
        self.max_round_seen = max(rounds)
        for slot in sorted(state.decided):
            self._record_decision(slot, state.decided[slot])

    # -- learner ------------------------------------------------------------------------------------

    def _record_decision(self, slot: Slot, value: Any) -> None:
        # Durable before the decision is acted on (and, on the leader,
        # before the Decide broadcast below in _handle_accepted).
        self.durable.record_decide(slot, value)
        released = self.log.record(slot, value, self.transport.now)
        if released:
            self._m_decided.inc(len(released))
        awaiting, assigned = self.awaiting, self.assigned_keys
        inner = value.payloads if isinstance(value, Batch) else (value,)
        for payload in inner:
            key = proposal_key(payload)
            if key is not None:
                awaiting.pop(key, None)
                if assigned.setdefault(key, slot) != slot:
                    assigned[key] = slot  # the slot that carries it wins
        if released:
            self.transport.trace(
                "decide", upto=self.log.next_to_deliver - 1, count=len(released)
            )

    def _handle_heartbeat(self, msg: m.Heartbeat, sender: NodeId) -> None:
        if msg.ballot.round > self.max_round_seen:
            self.max_round_seen = msg.ballot.round
        if msg.ballot >= self.promised:
            self.leader_hint = msg.ballot.proposer
            self._last_leader_contact = self.transport.now
            self._monitor.heard_from_leader()
            if self.is_leader and msg.ballot > self.ballot:
                self._step_down(msg.ballot)
            elif self.params.lease_duration > 0:
                self._reply(sender, m.HeartbeatAck(msg.ballot, msg.sent_at))
        if msg.max_decided >= self.log.next_to_deliver:
            self._request_catchup(sender)

    def _handle_heartbeat_ack(self, msg: m.HeartbeatAck, sender: NodeId) -> None:
        if not self.is_leader or msg.ballot != self.ballot:
            return
        previous = self._hb_echoes.get(sender, float("-inf"))
        if msg.echo > previous:
            self._hb_echoes[sender] = msg.echo

    def has_read_lease(self, now: float) -> bool:
        """True while a quorum acknowledged heartbeats recently enough.

        The lease is anchored at heartbeat *send* time: with the quorum's
        (quorum-1)-th freshest echo at time t, no other member can be
        elected (vote stickiness + suspicion timeouts exceed the lease)
        before ``t + lease_duration``, hence no write can commit that this
        leader has not itself ordered.
        """
        if self.stopped or not self.is_leader or self.params.lease_duration <= 0:
            return False
        others_needed = self.quorum - 1
        if others_needed == 0:
            return True
        echoes = sorted(self._hb_echoes.values(), reverse=True)
        if len(echoes) < others_needed:
            return False
        anchor = echoes[others_needed - 1]
        return now < anchor + self.params.lease_duration

    def read_freshness_age(self, now: float) -> float:
        """Seconds of silence from the leader (0.0 while leading).

        Feeds the bounded-staleness follower-read mode: a member that
        heard a heartbeat or accept recently serves local reads that are
        at most that-silence-plus-a-bound stale. Stopped engines are
        infinitely stale — a sealed epoch's state must not be read past
        its hand-off.
        """
        if self.stopped:
            return float("inf")
        if self.is_leader:
            return 0.0
        return now - self._last_leader_contact

    def _request_catchup(self, target: NodeId) -> None:
        now = self.transport.now
        if now - self._last_catchup_request < HEARTBEAT_INTERVAL:
            return
        self._last_catchup_request = now
        self.transport.send(
            target,
            m.CatchupRequest(self.log.next_to_deliver),
            size=PROTOCOL_OVERHEAD_BYTES,
        )

    def _handle_catchup_request(self, msg: m.CatchupRequest, sender: NodeId) -> None:
        entries = self.log.decided_range(msg.from_slot, CATCHUP_BATCH)
        if not entries:
            return
        size = PROTOCOL_OVERHEAD_BYTES + sum(
            payload_size(v) for _, v in entries
        )
        self.transport.send(sender, m.CatchupReply(tuple(entries)), size=size)
