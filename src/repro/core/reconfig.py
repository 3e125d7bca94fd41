"""The reconfigurable replica: composing static SMR instances.

This module implements the paper's protocol. Each replica hosts a *chain*
of epochs; epoch ``e`` wraps one static SMR engine over the fixed member
set ``C_e``. The moving parts:

Effective-log cut
    Reconfiguration requests are ordinary payloads ordered by the current
    engine. The **first** ``ReconfigCommand`` delivered in an epoch's log
    seals the epoch at that slot: the epoch's effective log is exactly the
    prefix up to and including the cut. Because the cut is a pure function
    of the (agreed) decided log, every member computes the same cut with
    no extra coordination and no "stop" API on the black box.

Orphan re-proposal
    The black box keeps deciding slots past the cut (it cannot be told to
    stop). Those decisions are *orphans*: their payloads are re-proposed
    into the newest epoch. Engine-level key dedup plus the exactly-once
    apply layer make this safe; nothing acknowledged is ever lost and
    nothing executes twice.

Chain construction
    Sealing epoch ``e`` opens epoch ``e+1`` over the membership named by
    the cut command. New members (in ``C_{e+1}`` but not ``C_e``) learn of
    the epoch via ``EpochAnnounce`` and fetch the boundary snapshot from
    old members.

Speculative pipelining (the paper's liveness point)
    Ordering in epoch ``e+1`` starts as soon as the epoch is known —
    *before* the boundary state is available. Decided-but-not-yet-
    executable commands accumulate; execution (and client replies) catch
    up the moment the boundary state lands. ``ReconfigParams.pipeline_depth``
    gates this: ``None`` is the paper's unbounded pipeline, ``1`` disables
    speculation entirely (the stop-the-world baseline), and intermediate
    depths support the ablation experiment F4.
"""

from __future__ import annotations

from contextlib import contextmanager
from copy import deepcopy
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.consensus.interface import (
    Batch,
    EngineFactory,
    InstanceMessage,
    Transport,
)
from repro.core.client import (
    ClientReply,
    ClientRequest,
    Redirect,
    ReplyBatch,
    RequestBatch,
)
from repro.core.command import ReconfigCommand, ReconfigRequest
from repro.core.epoch import EpochRuntime
from repro.core.runtime import Runtime
from repro.core.state_transfer import (
    SnapshotChunkReply,
    SnapshotChunkRequest,
    SnapshotReply,
    SnapshotRequest,
    SnapshotUnavailable,
    TransferTask,
)
from repro.core.statemachine import DedupStateMachine, StateMachine
from repro.errors import ProtocolError, RecoveryError
from repro.metrics.registry import SPAN_RECONFIG, SPAN_RECOVERY, metrics_of
from repro.sim.node import Process
from repro.types import (
    Command,
    CommandId,
    Configuration,
    Decision,
    EpochId,
    Membership,
    NodeId,
    Time,
)


@dataclass(frozen=True, slots=True)
class EpochAnnounce:
    """Tell members of a new configuration that their epoch exists.

    Sent by every sealing member of the previous epoch to every member of
    the new one; idempotent on receipt. ``prev_members`` tells joiners whom
    to ask for the boundary snapshot.
    """

    config: Configuration
    prev_members: Membership


@dataclass(frozen=True, slots=True)
class ObserverSubscribe:
    """A non-voting standby asks a member to stream the virtual log to it.

    Observers (learners) warm up *before* being added to the membership:
    they receive a bootstrap (boundary snapshot + effective entries so far)
    and then every subsequent effective entry. A later reconfiguration that
    promotes the observer finds its state already local, so the hand-off
    costs no bulk transfer — the warm-join ablation (experiment F5).
    """


@dataclass(frozen=True, slots=True)
class ObserverBootstrap:
    """Sponsor -> observer: everything needed to start tracking.

    ``epochs`` lists ``(config, effective_entries, cut_slot)`` for every
    epoch from ``start_epoch`` on, in order; ``boundary`` is the
    application state at the start of ``start_epoch`` (None = fresh).
    """

    start_epoch: EpochId
    boundary: Any
    boundary_bytes: int
    epochs: tuple[tuple[Configuration, tuple, Any], ...]


@dataclass(frozen=True, slots=True)
class ObserverUpdate:
    """Sponsor -> observer: one new effective entry."""

    config: Configuration
    slot: int
    payload: Any


@dataclass(slots=True)
class ReconfigParams:
    """Composition-layer parameters."""

    engine_factory: EngineFactory
    #: None = unbounded speculation (the paper); 1 = stop-the-world.
    pipeline_depth: int | None = None
    transfer_retry_interval: float = 0.05
    #: None = ship the snapshot in one message; otherwise stream it as a
    #: train of chunks of this many bytes (resumable across source crashes).
    transfer_chunk_bytes: int | None = None
    #: grace before a sealed, fully-executed epoch's engine is stopped.
    engine_gc_grace: float = 1.0
    #: boundary snapshots cached for serving joiners.
    snapshot_cache_limit: int = 8
    #: how often a silent observer re-subscribes (sponsor failover).
    observer_resubscribe_interval: float = 0.5
    #: members re-announce the newest epoch at this period until it seals,
    #: so a joiner that missed the (unacknowledged) announce still joins.
    announce_interval: float = 0.5
    #: period of durable state-machine checkpoints (0 = boundary-only).
    #: Only meaningful on replicas constructed with a ``storage`` store.
    checkpoint_interval: float = 0.0
    #: "log" orders every operation; "lease" serves read-only operations
    #: locally at the current epoch's leaseholding leader (linearizable,
    #: no log round); "follower" serves read-only operations locally at
    #: ANY caught-up member within ``staleness_bound`` of leader contact
    #: (bounded staleness, NOT linearizable — reads scale across members).
    read_mode: str = "log"
    #: operations eligible for the lease fast path (pure reads only).
    read_only_ops: frozenset = frozenset(
        {"get", "scan", "read", "balance", "holder", "total"}
    )
    #: follower mode only: max seconds of leader silence before a member
    #: refuses local reads and falls back to the ordered path. A served
    #: read reflects every write the member had learned of when it last
    #: heard from the leader, so the observable staleness is bounded by
    #: roughly this plus one heartbeat interval.
    staleness_bound: float = 0.5


# Commit listener: (time, payload, epoch, virtual_index, reply_value).
CommitListener = Callable[[Time, Any, EpochId, int, Any], None]

# Order listener: (time, payload, epoch, slot) — fires when a decision
# enters an epoch's effective log, i.e. when its position becomes final.
# This is the signal that keeps flowing during speculative hand-off even
# though execution (and client replies) wait for the boundary state.
OrderListener = Callable[[Time, Any, EpochId, int], None]


@dataclass(slots=True)
class _PendingReply:
    client: NodeId
    received_at: Time


class ReconfigurableReplica(Process):
    """One server of the reconfigurable replicated service."""

    def __init__(
        self,
        sim: Runtime,
        node: NodeId,
        app_factory: Callable[[], StateMachine],
        params: ReconfigParams,
        initial_config: Configuration | None = None,
        commit_listener: CommitListener | None = None,
        order_listener: OrderListener | None = None,
        observe_from: list[NodeId] | None = None,
        storage: Any = None,
    ):
        super().__init__(sim, node)
        # Set before any engine exists: engines discover durability by
        # reading ``host.storage`` through their transport at construction.
        self.storage = storage
        self._last_checkpoint_marker: tuple[EpochId, int] = (-1, -1)
        self.params = params
        self.app_factory = app_factory
        self.commit_listener = commit_listener
        self.order_listener = order_listener
        #: nodes this replica streams the virtual log to (we are a sponsor).
        self._observers: set[NodeId] = set()
        #: sponsors to subscribe to when running as a warm standby.
        self._observe_targets: list[NodeId] = list(observe_from or [])
        self._observe_index = 0
        self._observer_bootstrapped = False
        self._last_observed_at = -1.0
        #: out-of-order observed entries: epoch -> slot -> (config, payload)
        self._observed_stash: dict[EpochId, dict[int, tuple[Configuration, Any]]] = {}

        self.chain: dict[EpochId, EpochRuntime] = {}
        self.newest_epoch: EpochId = -1
        #: first epoch not fully executed locally.
        self.exec_epoch: EpochId = 0
        self.virtual_index = 0
        self.state: DedupStateMachine | None = None

        #: boundary snapshots: epoch -> (snapshot, size); serves joiners.
        self.boundary_snapshots: dict[EpochId, tuple[Any, int]] = {}
        self._transfer: TransferTask | None = None
        self._transfer_timer_armed = False
        #: set by :meth:`on_start`; nothing may be sent before it (the
        #: constructor runs recovery before the transport is up).
        self._started = False

        self._pending: dict[CommandId, _PendingReply] = {}
        self._replies: dict[CommandId, tuple[Any, EpochId, int]] = {}
        #: inside :meth:`_coalesced_replies` replies gather here (keyed by
        #: destination) and leave as one ReplyBatch frame per client.
        self._reply_buffer: dict[NodeId, list[ClientReply]] | None = None
        self._sealed_cids: set[CommandId] = set()
        self.committed: list[tuple[Any, EpochId, int]] = []
        self.lease_reads = 0
        self.follower_reads = 0
        #: payloads re-proposed into the new epoch at seal time (the name
        #: is historical: the overlap began as the "dirty" hand-off mode).
        self.dirty_overlaps = 0

        self.metrics = metrics_of(sim)
        self._commits_total = self.metrics.counter("smr.commits")
        self._m_lease_reads = self.metrics.counter("smr.lease_reads")
        self._m_follower_reads = self.metrics.counter("smr.follower_reads")
        self._orphans = self.metrics.counter("smr.orphans")
        self._m_dirty_overlaps = self.metrics.counter("smr.dirty_overlaps")
        self._exec_lag = self.metrics.histogram("smr.exec_lag")
        #: replies sent to clients / frames that carried them.
        self._m_replies = self.metrics.counter("smr.replies")
        self._m_reply_frames = self.metrics.counter("smr.reply_frames")
        self._epoch_commits: dict[EpochId, Any] = {}
        #: the epoch this replica was bootstrapped into (no reconfiguration
        #: created it, so it gets no reconfiguration span).
        self._genesis_epoch: EpochId | None = (
            initial_config.epoch if initial_config is not None else None
        )

        if storage is not None and storage.recovered.has_state:
            self._recover_from_storage()
        elif initial_config is not None:
            if node not in initial_config.members:
                raise ProtocolError(
                    f"{node} bootstrapped with a configuration it is not in"
                )
            self.exec_epoch = initial_config.epoch
            self._open_epoch(initial_config, prev_members=None)
            runtime = self.chain[initial_config.epoch]
            runtime.start_state = None  # fresh application state
            runtime.start_state_ready = True
            self._maybe_start_engines()

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests, examples, the harness)
    # ------------------------------------------------------------------

    @property
    def newest_config(self) -> Configuration | None:
        runtime = self.chain.get(self.newest_epoch)
        return runtime.config if runtime is not None else None

    @property
    def is_retired(self) -> bool:
        config = self.newest_config
        return config is None or self.node not in config.members

    def epoch_runtime(self, epoch: EpochId) -> EpochRuntime | None:
        return self.chain.get(epoch)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _span(self, epoch: EpochId, phase: str) -> None:
        """Mark one phase of the reconfiguration span producing ``epoch``.

        The span id is the *new* epoch: decided/cut fire while sealing
        ``epoch - 1``, transfer when ``epoch``'s boundary state becomes
        available, first-commit when ``epoch`` executes its first entry.
        The genesis epoch was not produced by a reconfiguration, so it
        gets no span.
        """
        if epoch == self._genesis_epoch:
            return
        self.metrics.span_event(SPAN_RECONFIG, epoch, phase, self.now)

    def _count_commit(self, epoch: EpochId) -> None:
        self._commits_total.inc()
        counter = self._epoch_commits.get(epoch)
        if counter is None:
            counter = self._epoch_commits[epoch] = self.metrics.counter(
                f"smr.commits.epoch.{epoch}"
            )
        counter.inc()

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def _recover_from_storage(self) -> None:
        """Rebuild the epoch chain from the durable store at boot.

        The checkpoint pins the execution frontier (state machine, virtual
        index, entries of the frontier epoch already applied); the WAL's
        epoch-open records say which engines to rebuild, and each engine
        restores its own acceptor/learner state through its durability
        handle as it is constructed — replayed decisions flow through the
        ordinary ``on_decide`` path, so seals, chain growth and execution
        all happen exactly as they did the first time. Anything the WAL
        does not know (entries decided elsewhere while we were down) is
        healed afterwards by the normal catch-up and announce protocols:
        we *rejoin* the cluster, we do not cold-join it.

        Raises :class:`RecoveryError` when the store holds state but
        nothing a chain can be built from.
        """
        rec = self.storage.recovered
        ckpt = rec.checkpoint
        epoch_opens = {eo.config.epoch: eo for eo in rec.epochs}
        base = ckpt.exec_epoch if ckpt is not None else min(epoch_opens)
        base_open = epoch_opens.get(base)
        if base_open is None:
            raise RecoveryError(
                f"{self.node}: the durable store has no epoch-open record for "
                f"its execution epoch {base} (it knows {sorted(epoch_opens)})"
            )
        self.metrics.span_event(SPAN_RECOVERY, self.node, "begin", self.now)

        self.exec_epoch = base
        runtime = EpochRuntime(config=base_open.config)
        self.chain[base] = runtime
        self.newest_epoch = base
        if ckpt is not None:
            runtime.executed = ckpt.executed
            runtime.start_state = {
                "state": ckpt.app_state,
                "vindex": ckpt.virtual_index,
            }
            runtime.start_state_ready = True
            # A mid-epoch checkpoint is not the epoch boundary: replay
            # resumes from it, but joiners must fetch the true boundary
            # from someone else.
            runtime.start_state_is_boundary = ckpt.executed == 0
            self._last_checkpoint_marker = (ckpt.exec_epoch, ckpt.virtual_index)
        elif base_open.prev_members is None:
            # Genesis epoch, never checkpointed: replay from scratch.
            runtime.start_state = None
            runtime.start_state_ready = True
        # else: we joined ``base`` and crashed before its boundary landed —
        # leave start_state_ready False and _open_epoch below re-fetches
        # the boundary from base_open.prev_members, like a cold joiner.

        # The recovered base was not (re)produced by a reconfiguration we
        # will observe this lifetime; suppress its reconfig span.
        self._genesis_epoch = base
        for epoch in sorted(epoch_opens):
            if epoch < base:
                continue
            eo = epoch_opens[epoch]
            self._open_epoch(eo.config, prev_members=eo.prev_members)
        self.metrics.span_event(SPAN_RECOVERY, self.node, "replayed", self.now)
        self._advance_execution()
        self._replay_dirty_overlaps(rec.dirty_overlaps)
        self.metrics.span_event(SPAN_RECOVERY, self.node, "rejoined", self.now)
        self.trace(
            "recovered",
            base=base,
            newest=self.newest_epoch,
            executed=self.virtual_index,
            wal_records=rec.records,
            torn_bytes=rec.torn_bytes,
        )

    def _replay_dirty_overlaps(self, records: list[Any]) -> None:
        """Re-propose recovered seal-time tails (the records written by
        :meth:`_overlap_sealed_tail`): a tail whose re-proposals never
        reached an acceptor before the crash exists nowhere but its WAL
        record, so it rides the ordinary orphan path again. Tails that
        *did* decide are screened out by the reply cache / apply-time
        dedup — a replay is at worst a no-op proposal.
        """
        for record in records:
            for payload in record.payloads:
                self.dirty_overlaps += 1
                self._m_dirty_overlaps.inc()
                self._repropose_orphan(payload)
            self.trace(
                "dirty-overlap-replay",
                epoch=record.epoch,
                payloads=len(record.payloads),
            )

    # ------------------------------------------------------------------
    # Epoch chain management
    # ------------------------------------------------------------------

    def _open_epoch(
        self, config: Configuration, prev_members: Membership | None
    ) -> None:
        """Create (or complete) the runtime for ``config``.

        Idempotent; also handles the warm-standby promotion case where the
        runtime already exists (built from observed entries) but the engine
        does not (we were not a member when it was created).
        """
        runtime = self.chain.get(config.epoch)
        if runtime is None:
            runtime = EpochRuntime(config=config)
            self.chain[config.epoch] = runtime
            if config.epoch > self.newest_epoch:
                self.newest_epoch = config.epoch
            if len(self.chain) == 1:
                self.exec_epoch = config.epoch
        if self.node in config.members and runtime.engine is None:
            if self.storage is not None:
                # Durable before the engine exists (let alone speaks): a
                # recovered replica must know which epochs it was in.
                self.storage.log_epoch_open(config, prev_members)
            transport = Transport(self, f"e{config.epoch}")
            runtime.engine = self.params.engine_factory(
                transport,
                config.members,
                lambda decision, e=config.epoch: self._on_engine_decide(e, decision),
            )
            # A member that cannot compute the boundary locally must fetch
            # it. "Locally" requires a way to obtain the previous epoch's
            # effective entries: hosting its engine (we were a member) or
            # an active observer stream. Merely *knowing about* the
            # previous epoch (a chain entry with no entry source — the
            # in/out/in "skipped epoch" case) does not qualify.
            was_in_prev = prev_members is not None and self.node in prev_members
            prev_runtime = self.chain.get(config.epoch - 1)
            warm = (
                not was_in_prev
                and prev_runtime is not None
                and (prev_runtime.engine is not None or bool(self._observe_targets))
            )
            if prev_members is not None and not was_in_prev and not warm:
                if not runtime.start_state_ready:
                    self._begin_transfer(config.epoch, prev_members)
            self.trace(
                "epoch-open",
                epoch=config.epoch,
                members=str(config.members),
                member=True,
                warm=warm,
            )
        self._maybe_start_engines()

    def _maybe_start_engines(self) -> None:
        """Start created engines allowed by the speculation gate."""
        depth = self.params.pipeline_depth
        exec_runtime = self.chain.get(self.exec_epoch)
        if exec_runtime is not None and exec_runtime.start_state_ready:
            frontier = self.exec_epoch
        else:
            frontier = self.exec_epoch - 1
        for epoch in sorted(self.chain):
            runtime = self.chain[epoch]
            if runtime.engine is None or runtime.engine_started:
                continue
            if depth is not None and epoch - frontier > depth - 1:
                continue
            runtime.engine_started = True
            runtime.engine.start()
            self.trace("engine-start", epoch=epoch, speculative=not runtime.start_state_ready)

    # ------------------------------------------------------------------
    # Decisions from engines
    # ------------------------------------------------------------------

    def _on_engine_decide(self, epoch: EpochId, decision: Decision) -> None:
        runtime = self.chain[epoch]
        if runtime.sealed and decision.slot > runtime.cut_slot:
            runtime.orphaned += 1
            self._orphans.inc()
            self._repropose_orphan(decision.payload)
            return
        if decision.slot < len(runtime.effective):
            # Already present: a promoted observer heard this entry from
            # its sponsor before its own engine delivered it. Agreement
            # guarantees the payloads match; check anyway.
            if runtime.effective[decision.slot] != decision.payload:
                raise ProtocolError(
                    f"epoch {epoch} slot {decision.slot}: engine decision "
                    f"contradicts observed entry"
                )
            return
        if decision.slot != len(runtime.effective):
            raise ProtocolError(
                f"epoch {epoch} delivered slot {decision.slot}, "
                f"expected {len(runtime.effective)}"
            )
        self._append_effective(runtime, decision.slot, decision.payload)
        self._advance_execution()

    def _append_effective(self, runtime: EpochRuntime, slot: int, payload: Any) -> None:
        """Append one entry to an epoch's effective log (engine or observed)."""
        epoch = runtime.config.epoch
        runtime.effective.append(payload)
        runtime.decided_at.append(self.now)
        if self.order_listener is not None:
            self.order_listener(self.now, payload, epoch, slot)
        if self._observers:
            update = ObserverUpdate(runtime.config, slot, payload)
            size = 64 + int(getattr(payload, "size", 32))
            for observer in self._observers:
                self.send(observer, update, size=size)
        if isinstance(payload, ReconfigCommand) and not runtime.sealed:
            self._span(epoch + 1, "decided")
            self._seal_epoch(runtime, slot, payload)

    def _seal_epoch(
        self, runtime: EpochRuntime, slot: int, command: ReconfigCommand
    ) -> None:
        runtime.cut_slot = slot
        next_config = Configuration(runtime.config.epoch + 1, command.new_members)
        runtime.next_config = next_config
        self._sealed_cids.add(command.cid)
        self._span(next_config.epoch, "cut")
        self.trace(
            "epoch-seal",
            epoch=runtime.config.epoch,
            cut=slot,
            next_members=str(command.new_members),
        )
        was_member = runtime.engine is not None
        self._open_epoch(next_config, prev_members=runtime.config.members)
        if was_member:
            # Only actual members of the sealed epoch announce; observers
            # learn seals second-hand and must not speak for the epoch.
            self._announce_epoch(next_config, runtime.config.members)
            self._overlap_sealed_tail(runtime)

    def _overlap_sealed_tail(self, runtime: EpochRuntime) -> None:
        """Seal-time tail rescue: carry the undecided tail over *now*.

        At the instant of the seal the outgoing engine may still hold
        payloads it has not managed to decide (``awaiting``). Left there
        they reach the new epoch only after an orphan decide round trip
        in the old one — and if the old quorum died at the seal (kills
        past f among the retirees) they never decide, so their clients
        wait out a full request timeout. Instead every member re-proposes
        them into the new epoch immediately. A payload that *also*
        decides at or before the cut in the old epoch executes there
        first and the new-epoch copy deduplicates at apply time; a
        payload that decides past the cut was an orphan anyway. Nothing
        is acknowledged twice and nothing is lost.
        """
        engine = runtime.engine
        if engine is None or engine.stopped:
            return
        tail = list(getattr(engine, "awaiting", {}).values())
        if not tail:
            return
        if self.storage is not None:
            # Durable before the re-proposals can reach a socket: the
            # record is the only trace of the tail until some engine
            # accepts it, and a SIGKILL in that gap must not lose it.
            # The sealing command itself is excluded: it already took
            # effect (that is what sealed us), and _sealed_cids — which
            # screens it out of the live re-propose below — is not
            # rebuilt by recovery, so replaying it would cut a redundant
            # extra epoch.
            durable_tail = [
                p
                for p in tail
                if not (
                    isinstance(p, ReconfigCommand)
                    and p.cid in self._sealed_cids
                )
            ]
            if durable_tail:
                self.storage.log_dirty_overlap(
                    runtime.config.epoch, durable_tail
                )
        for payload in tail:
            self.dirty_overlaps += 1
            self._m_dirty_overlaps.inc()
            self._repropose_orphan(payload)
        self.trace(
            "dirty-overlap", epoch=runtime.config.epoch, payloads=len(tail)
        )

    def _announce_epoch(self, config: Configuration, prev_members: Membership) -> None:
        """Announce ``config`` to its members, re-sending until it seals.

        Announces carry no ack, so a single send can vanish into a
        partition and strand a joiner forever; re-announcing while the
        epoch is still the newest unsealed one makes epoch discovery
        self-healing at a cost of a few small messages per interval.
        """
        if self.crashed:
            return
        runtime = self.chain.get(config.epoch)
        if runtime is None or runtime.sealed or config.epoch < self.newest_epoch:
            return
        announce = EpochAnnounce(config, prev_members)
        for member in config.members:
            if member != self.node:
                self.send(member, announce)
        self.set_timer(
            self.params.announce_interval,
            lambda: self._announce_epoch(config, prev_members),
            label="re-announce",
        )

    def _repropose_orphan(self, payload: Any) -> None:
        if isinstance(payload, Batch):
            for inner in payload.payloads:
                self._repropose_orphan(inner)
            return
        if isinstance(payload, ReconfigCommand):
            if payload.cid in self._sealed_cids:
                return  # already took effect in an earlier epoch
        elif not isinstance(payload, Command):
            return  # noops and other filler need no second life
        if isinstance(payload, Command) and payload.cid in self._replies:
            return  # already executed
        if self._propose_newest(payload):
            return
        # We host no engine in any live epoch — we are leaving the cluster
        # and cannot carry this command forward. Bounce the waiting client
        # to the new configuration *now*; otherwise it only finds out via
        # its request timeout, which turns every hand-off into a full
        # timeout-length outage for the clients caught mid-seal.
        pending = self._pending.pop(payload.cid, None)
        if pending is not None:
            config = self.newest_config
            if config is not None:
                self.send(
                    pending.client,
                    Redirect(payload.cid, config.members, config.epoch),
                )

    def _propose_newest(self, payload: Any) -> bool:
        """Propose into the newest *live* epoch we participate in.

        Returns False when every epoch we host an engine for is already
        sealed (we are leaving the cluster): proposing into a sealed
        instance only produces orphans that bounce straight back here —
        callers must instead redirect clients to the new configuration.
        """
        for epoch in sorted(self.chain, reverse=True):
            runtime = self.chain[epoch]
            engine = runtime.engine
            if engine is None or engine.stopped:
                continue
            if runtime.sealed:
                return False
            engine.propose(payload)
            return True
        return False

    # ------------------------------------------------------------------
    # Execution pipeline
    # ------------------------------------------------------------------

    def _advance_execution(self) -> None:
        while True:
            runtime = self.chain.get(self.exec_epoch)
            if runtime is None or not runtime.start_state_ready:
                break
            if self.state is None:
                self._initialise_state(runtime)
            while runtime.executed < len(runtime.effective):
                payload = runtime.effective[runtime.executed]
                self._exec_lag.record(
                    self.now - runtime.decided_at[runtime.executed]
                )
                runtime.executed += 1
                self._execute(payload, runtime.config.epoch)
                if runtime.executed == 1:
                    self._span(runtime.config.epoch, "first-commit")
            if runtime.fully_executed:
                self._finish_epoch(runtime)
                continue
            break
        self._maybe_start_engines()

    def _initialise_state(self, runtime: EpochRuntime) -> None:
        self.state = DedupStateMachine(self.app_factory())
        if runtime.start_state is not None:
            boundary = runtime.start_state
            self.state.restore(boundary["state"])
            self.virtual_index = boundary["vindex"]

    def _execute(self, payload: Any, epoch: EpochId) -> None:
        assert self.state is not None
        if isinstance(payload, Batch):
            # One slot, many commands: each gets its own virtual position,
            # and the replies leave as one frame per client. Plain Commands
            # (the entire hot path) run in an inlined loop; anything else
            # in a mixed batch falls back to the general case.
            with self._coalesced_replies():
                state_apply = self.state.apply
                commits = self.committed
                listener = self.commit_listener
                for inner in payload.payloads:
                    if type(inner) is not Command:
                        self._execute(inner, epoch)
                        continue
                    vindex = self.virtual_index
                    self.virtual_index = vindex + 1
                    value = state_apply(inner)
                    self._complete_command(inner.cid, value, epoch, vindex)
                    commits.append((inner, epoch, vindex))
                    self._count_commit(epoch)
                    if listener is not None:
                        listener(self.now, inner, epoch, vindex, value)
            return
        vindex = self.virtual_index
        self.virtual_index += 1
        if isinstance(payload, Command):
            value = self.state.apply(payload)
            self._complete_command(payload.cid, value, epoch, vindex)
        elif isinstance(payload, ReconfigCommand):
            value = f"epoch:{epoch + 1}"
            self._complete_command(payload.cid, value, epoch, vindex)
        else:
            value = None  # Noop filler
        self.committed.append((payload, epoch, vindex))
        self._count_commit(epoch)
        if self.commit_listener is not None:
            self.commit_listener(self.now, payload, epoch, vindex, value)

    def _complete_command(
        self, cid: CommandId, value: Any, epoch: EpochId, vindex: int
    ) -> None:
        self._replies[cid] = (value, epoch, vindex)
        pending = self._pending.pop(cid, None)
        if pending is not None:
            self._reply_client(pending.client, ClientReply(cid, value, epoch, vindex))

    def _reply_client(self, client: NodeId, reply: ClientReply) -> None:
        """Answer one command; inside a coalescing scope the frame waits
        for the scope's end (the command was still served *here*)."""
        if self._reply_buffer is not None:
            self._reply_buffer.setdefault(client, []).append(reply)
            return
        self._m_replies.inc()
        self._m_reply_frames.inc()
        self.send(client, reply)

    @contextmanager
    def _coalesced_replies(self) -> Iterator[None]:
        """Replies produced inside the scope leave at its end, one frame
        per client: the reply-path half of wire-level batching. Entered
        around a decided :class:`Batch` and around a :class:`RequestBatch`
        frame; a nested scope joins the outer one."""
        if self._reply_buffer is not None:
            yield
            return
        self._reply_buffer = {}
        try:
            yield
        finally:
            buffered, self._reply_buffer = self._reply_buffer, None
            for client, replies in buffered.items():
                self._m_replies.inc(len(replies))
                self._m_reply_frames.inc()
                self.send(
                    client,
                    replies[0] if len(replies) == 1 else ReplyBatch(tuple(replies)),
                )

    def _finish_epoch(self, runtime: EpochRuntime) -> None:
        assert self.state is not None
        epoch = runtime.config.epoch
        boundary = {"state": self.state.snapshot(), "vindex": self.virtual_index}
        size = self.state.snapshot_bytes()
        self.boundary_snapshots[epoch + 1] = (boundary, size)
        self._trim_snapshot_cache()
        self.trace("epoch-executed", epoch=epoch, entries=runtime.executed)
        # Hand the boundary to the next epoch locally, if we host it.
        next_runtime = self.chain.get(epoch + 1)
        if next_runtime is not None and not next_runtime.start_state_ready:
            next_runtime.start_state = boundary
            next_runtime.start_state_ready = True
            self._span(epoch + 1, "transfer")
            if self._transfer is not None and self._transfer.epoch == epoch + 1:
                self._transfer.done = True
        self.exec_epoch = epoch + 1
        if self.storage is not None:
            # Boundary checkpoint: pins the new epoch's start state and
            # lets the WAL drop everything the finished epoch wrote.
            self._last_checkpoint_marker = (epoch + 1, self.virtual_index)
            self.storage.checkpoint(
                exec_epoch=epoch + 1,
                executed=0,
                virtual_index=self.virtual_index,
                app_state=boundary["state"],
                now=self.now,
            )
        if runtime.engine is not None:
            engine = runtime.engine
            self.set_timer(
                self.params.engine_gc_grace,
                lambda: self._gc_engine(epoch, engine),
                label="engine-gc",
            )

    def _gc_engine(self, epoch: EpochId, engine) -> None:
        if engine.stopped:
            return
        # Rescue anything still waiting in the dying engine's queue.
        leftovers = list(getattr(engine, "awaiting", {}).values())
        engine.stop()
        for payload in leftovers:
            self._repropose_orphan(payload)
        self.trace("engine-gc", epoch=epoch, rescued=len(leftovers))

    def _trim_snapshot_cache(self) -> None:
        limit = self.params.snapshot_cache_limit
        while len(self.boundary_snapshots) > limit:
            del self.boundary_snapshots[min(self.boundary_snapshots)]

    # ------------------------------------------------------------------
    # State transfer
    # ------------------------------------------------------------------

    def _begin_transfer(self, epoch: EpochId, sources: Membership) -> None:
        others = [n for n in sources.sorted_nodes() if n != self.node]
        if not others:
            raise ProtocolError(f"no snapshot sources for epoch {epoch}")
        self._transfer = TransferTask(epoch=epoch, sources=others)
        self.trace("transfer-begin", epoch=epoch, sources=len(others))
        if self._started:
            self._transfer_tick()

    def _transfer_tick(self) -> None:
        task = self._transfer
        if task is None or task.done:
            self._transfer_timer_armed = False
            return
        runtime = self.chain.get(task.epoch)
        if runtime is not None and runtime.start_state_ready:
            task.done = True
            self._transfer_timer_armed = False
            return
        source = task.pick_source()
        if self.params.transfer_chunk_bytes is None:
            self.send(source, SnapshotRequest(task.epoch))
        else:
            self.send(
                source,
                SnapshotChunkRequest(
                    task.epoch, task.next_chunk, self.params.transfer_chunk_bytes
                ),
            )
        self._transfer_timer_armed = True
        self.set_timer(
            self.params.transfer_retry_interval, self._transfer_tick, label="transfer"
        )

    def _handle_snapshot_request(self, request: SnapshotRequest, sender: NodeId) -> None:
        cached = self.boundary_snapshots.get(request.epoch)
        if cached is None:
            self.send(sender, SnapshotUnavailable(request.epoch))
            return
        snapshot, size = cached
        # Deep copy models serialisation: the receiver must not alias our
        # live state.
        self.send(
            sender,
            SnapshotReply(request.epoch, deepcopy(snapshot), size),
            size=size + 128,
        )

    def _handle_snapshot_reply(self, reply: SnapshotReply) -> None:
        runtime = self.chain.get(reply.epoch)
        if runtime is None or runtime.start_state_ready:
            return
        runtime.start_state = reply.snapshot
        runtime.start_state_ready = True
        self._span(reply.epoch, "transfer")
        if self._transfer is not None and self._transfer.epoch == reply.epoch:
            self._transfer.done = True
        self.trace("transfer-done", epoch=reply.epoch, bytes=reply.snapshot_bytes)
        self._adopt_boundary_if_ahead(reply.epoch)
        self._advance_execution()

    def _adopt_boundary_if_ahead(self, epoch: EpochId) -> None:
        """Jump the execution frontier to a transferred boundary.

        A boundary snapshot for epoch ``k`` subsumes the history of every
        epoch before ``k``. Normally transfers land exactly at the
        execution frontier, but a replica that skipped an epoch as a
        member (in ``C_{e+1}`` and ``C_{e+3}`` but not ``C_{e+2}``) can be
        stuck with an earlier epoch it will never be able to execute
        locally; adopting the later boundary is both safe (the state is
        agreed) and the only way forward.
        """
        if epoch <= self.exec_epoch:
            return
        # A transfer is only ever started when the previous epoch cannot be
        # completed locally, so a transfer landing ahead of the execution
        # frontier always means the frontier is permanently stuck: adopt.
        self.trace("boundary-jump", frm=self.exec_epoch, to=epoch)
        # The jumped-over epochs will never execute locally, so their
        # reconfiguration spans can never reach first-commit here: close
        # them as aborted instead of leaving them dangling open forever.
        for skipped in range(self.exec_epoch, epoch):
            if skipped == self._genesis_epoch:
                continue
            self.metrics.abandon_span(SPAN_RECONFIG, skipped, self.now)
        self.exec_epoch = epoch
        self.state = None  # re-initialise from the adopted boundary

    def _handle_chunk_request(self, request: SnapshotChunkRequest, sender: NodeId) -> None:
        cached = self.boundary_snapshots.get(request.epoch)
        if cached is None:
            self.send(sender, SnapshotUnavailable(request.epoch))
            return
        snapshot, size = cached
        total = max(1, -(-size // request.chunk_bytes))  # ceil division
        index = min(request.index, total - 1)
        final = index == total - 1
        chunk_size = size - request.chunk_bytes * index if final else request.chunk_bytes
        self.send(
            sender,
            SnapshotChunkReply(
                request.epoch,
                index,
                total,
                deepcopy(snapshot) if final else None,
                size,
            ),
            size=max(chunk_size, 1) + 128,
        )

    def _handle_chunk_reply(self, reply: SnapshotChunkReply, sender: NodeId) -> None:
        task = self._transfer
        runtime = self.chain.get(reply.epoch)
        if runtime is None or runtime.start_state_ready:
            return
        if task is None or task.epoch != reply.epoch or task.done:
            return
        if reply.index != task.next_chunk:
            return  # stale or duplicated chunk; the timer re-requests
        task.total_chunks = reply.total_chunks
        task.next_chunk += 1
        if reply.index == reply.total_chunks - 1:
            runtime.start_state = reply.snapshot
            runtime.start_state_ready = True
            self._span(reply.epoch, "transfer")
            task.done = True
            self.trace(
                "transfer-done",
                epoch=reply.epoch,
                bytes=reply.snapshot_bytes,
                chunks=reply.total_chunks,
            )
            self._adopt_boundary_if_ahead(reply.epoch)
            self._advance_execution()
        else:
            # Stream: pull the next chunk immediately from whichever source
            # just answered (the retry timer covers losses and crashes).
            self.send(
                sender,
                SnapshotChunkRequest(
                    task.epoch, task.next_chunk, self.params.transfer_chunk_bytes
                ),
            )

    # ------------------------------------------------------------------
    # Observer (warm standby) protocol
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self._started = True
        if self._transfer is not None:
            self._transfer_tick()  # a transfer that recovery left pending
        if self._observe_targets:
            self._observer_subscribe_tick()
        interval = self.params.checkpoint_interval
        if self.storage is not None and interval > 0:
            # Stagger the members' timers across one interval, so the
            # snapshot encode + fsync never stops a quorum at once.
            config = self.newest_config
            members = config.members.sorted_nodes() if config is not None else []
            phase = members.index(self.node) / len(members) if self.node in members else 0.0
            self.set_timer(
                interval * (1.0 + phase), self._checkpoint_tick, label="checkpoint"
            )

    def _checkpoint_tick(self) -> None:
        if self.crashed:
            return
        self._maybe_checkpoint()
        self.set_timer(
            self.params.checkpoint_interval, self._checkpoint_tick, label="checkpoint"
        )

    def _maybe_checkpoint(self) -> None:
        """Write a periodic checkpoint if execution advanced since the last.

        Mid-epoch checkpoints bound recovery replay between epoch
        boundaries; the (epoch, virtual index) marker makes an idle
        replica's ticks free.
        """
        if self.storage is None or self.state is None:
            return
        marker = (self.exec_epoch, self.virtual_index)
        if marker == self._last_checkpoint_marker:
            return
        runtime = self.chain.get(self.exec_epoch)
        self._last_checkpoint_marker = marker
        self.storage.checkpoint(
            exec_epoch=self.exec_epoch,
            executed=runtime.executed if runtime is not None else 0,
            virtual_index=self.virtual_index,
            app_state=self.state.snapshot(),
            now=self.now,
        )

    def _observer_subscribe_tick(self) -> None:
        """Subscribe (and periodically re-subscribe) to a live sponsor."""
        if self.crashed or not self._observe_targets:
            return
        # Once promoted to a member, stop behaving like an observer.
        if any(rt.engine is not None for rt in self.chain.values()):
            return
        silent_for = self.now - self._last_observed_at
        if not self._observer_bootstrapped or silent_for >= self.params.observer_resubscribe_interval:
            target = self._observe_targets[self._observe_index % len(self._observe_targets)]
            self._observe_index += 1
            self.send(target, ObserverSubscribe())
        self.set_timer(
            self.params.observer_resubscribe_interval,
            self._observer_subscribe_tick,
            label="observer-subscribe",
        )

    def _handle_observer_subscribe(self, sender: NodeId) -> None:
        runtime = self.chain.get(self.exec_epoch)
        if runtime is None or not runtime.start_state_ready:
            return  # not bootstrappable yet; the observer will retry
        if not runtime.start_state_is_boundary:
            # Recovered from a mid-epoch checkpoint: our start_state is
            # not the epoch boundary, so we cannot bootstrap an observer
            # honestly. We can again at the next epoch boundary; until
            # then the observer's re-subscribe tries another sponsor.
            return
        self._observers.add(sender)
        epochs = tuple(
            (
                self.chain[epoch].config,
                tuple(self.chain[epoch].effective),
                self.chain[epoch].cut_slot,
            )
            for epoch in sorted(self.chain)
            if epoch >= self.exec_epoch
        )
        boundary_bytes = self.state.snapshot_bytes() if self.state is not None else 64
        entry_bytes = sum(
            int(getattr(payload, "size", 32))
            for _, entries, _ in epochs
            for payload in entries
        )
        self.send(
            sender,
            ObserverBootstrap(
                start_epoch=self.exec_epoch,
                boundary=deepcopy(runtime.start_state),
                boundary_bytes=boundary_bytes,
                epochs=epochs,
            ),
            size=boundary_bytes + entry_bytes + 128,
        )
        self.trace("observer-bootstrap-sent", to=str(sender), epochs=len(epochs))

    def _handle_observer_bootstrap(self, msg: ObserverBootstrap) -> None:
        self._last_observed_at = self.now
        start_runtime = self.chain.get(msg.start_epoch)
        if start_runtime is None and self.chain:
            # A re-bootstrap landed at an epoch we no longer track from;
            # only accept bootstraps that extend what we have.
            if msg.start_epoch < min(self.chain):
                return
        for config, entries, _cut in msg.epochs:
            self._open_epoch(config, prev_members=None)
            runtime = self.chain[config.epoch]
            if config.epoch == msg.start_epoch and not runtime.start_state_ready:
                runtime.start_state = msg.boundary
                runtime.start_state_ready = True
                self._span(config.epoch, "transfer")
            for slot, payload in enumerate(entries):
                self._observe_entry(config, slot, payload)
        self._observer_bootstrapped = True
        self.trace("observer-bootstrapped", start=msg.start_epoch)
        self._advance_execution()

    def _observe_entry(self, config: Configuration, slot: int, payload: Any) -> None:
        runtime = self.chain.get(config.epoch)
        if runtime is None:
            self._open_epoch(config, prev_members=None)
            runtime = self.chain[config.epoch]
        if runtime.engine is not None:
            return  # we are a member here: the engine is authoritative
        if runtime.sealed and slot > runtime.cut_slot:
            return  # orphan; observers never re-propose
        if slot < len(runtime.effective):
            return  # duplicate
        if slot > len(runtime.effective):
            self._observed_stash.setdefault(config.epoch, {})[slot] = (config, payload)
            return
        self._append_effective(runtime, slot, payload)
        # Drain any stashed successors that are now in order.
        stash = self._observed_stash.get(config.epoch)
        while stash:
            next_slot = len(runtime.effective)
            entry = stash.pop(next_slot, None)
            if entry is None:
                break
            self._append_effective(runtime, next_slot, entry[1])
        self._advance_execution()

    def _handle_observer_update(self, msg: ObserverUpdate) -> None:
        self._last_observed_at = self.now
        self._observe_entry(msg.config, msg.slot, msg.payload)

    # ------------------------------------------------------------------
    # Client interaction
    # ------------------------------------------------------------------

    def _handle_client_request(self, request: ClientRequest) -> None:
        self._admit_command(request.command, request.reply_to)

    def _admit_command(self, command: Command, reply_to: NodeId) -> None:
        cached = self._replies.get(command.cid)
        if cached is not None:
            value, epoch, vindex = cached
            self._reply_client(reply_to, ClientReply(command.cid, value, epoch, vindex))
            return
        if command.op in self.params.read_only_ops:
            mode = self.params.read_mode
            if mode == "lease" and self._serve_lease_read(command, reply_to):
                return
            if mode == "follower" and self._serve_follower_read(command, reply_to):
                return
        if self.is_retired:
            config = self.newest_config
            members = config.members if config is not None else Membership(frozenset())
            epoch = config.epoch if config is not None else -1
            self.send(reply_to, Redirect(command.cid, members, epoch))
            return
        self._pending[command.cid] = _PendingReply(reply_to, self.now)
        if not self._propose_newest(command):
            config = self.newest_config
            if config is not None:
                self.send(
                    reply_to,
                    Redirect(command.cid, config.members, config.epoch),
                )

    def _serve_lease_read(self, command: Command, reply_to: NodeId) -> bool:
        """Serve a read locally if it is provably linearizable to do so.

        Conditions (all must hold — each one is load-bearing):

        1. we lead the **newest** epoch we know and hold a valid read
           lease there — no other member can be committing writes;
        2. that epoch is **not sealed** — once sealed, writes move to the
           next instance, where someone else may already be ordering
           (the cross-epoch staleness hazard); and the seal is ordered by
           the leaseholder itself, so "not sealed here" is authoritative;
        3. our execution is fully caught up with everything we ordered —
           the local state contains every acknowledged write.

        Failing any condition falls back to the ordered (log) path.
        """
        runtime = self.chain.get(self.newest_epoch)
        if runtime is None or runtime.engine is None or not runtime.engine_started:
            return False
        if runtime.sealed:
            return False
        if not runtime.engine.has_read_lease(self.now):
            return False
        if self.exec_epoch != runtime.config.epoch:
            return False
        if not runtime.start_state_ready or runtime.executed != len(runtime.effective):
            return False
        if self.state is None:
            return False
        # Bypass the dedup layer on purpose: reads mutate nothing and must
        # not advance the client's dedup sequence (a later retry of an
        # *older* write would otherwise be misclassified as a duplicate).
        value = self.state.inner.apply(command)
        self.lease_reads += 1
        self._m_lease_reads.inc()
        self._reply_client(
            reply_to, ClientReply(command.cid, value, runtime.config.epoch, -1)
        )
        return True

    def _serve_follower_read(self, command: Command, reply_to: NodeId) -> bool:
        """Serve a read locally under an explicit staleness bound.

        Unlike the lease path this is NOT linearizable: any caught-up
        member of the newest epoch answers from local state when it heard
        from the leader within ``params.staleness_bound`` seconds
        (leaders are always fresh). The reply reflects every write this
        member has learned of — a write committed at the leader whose
        ``Decide`` has not arrived here yet is exactly the staleness the
        bound caps, at roughly ``staleness_bound + heartbeat_interval``.

        The epoch-cut guards are shared with the lease path: a sealed
        epoch or lagging execution refuses the read, so local reads never
        observe state from an epoch that has handed off, and a drained
        shard range fails ownership inside the state machine like any
        other apply.
        """
        runtime = self.chain.get(self.newest_epoch)
        if runtime is None or runtime.engine is None or not runtime.engine_started:
            return False
        if runtime.sealed:
            return False
        if runtime.engine.read_freshness_age(self.now) > self.params.staleness_bound:
            return False
        if self.exec_epoch != runtime.config.epoch:
            return False
        if not runtime.start_state_ready or runtime.executed != len(runtime.effective):
            return False
        if self.state is None:
            return False
        # Same dedup bypass as the lease path (reads mutate nothing and
        # must not advance the client's dedup sequence).
        value = self.state.inner.apply(command)
        self.follower_reads += 1
        self._m_follower_reads.inc()
        self._reply_client(
            reply_to, ClientReply(command.cid, value, runtime.config.epoch, -1)
        )
        return True

    def request_reconfiguration(self, command: ReconfigCommand) -> bool:
        """Entry point for admin-driven reconfiguration (see service API)."""
        if command.cid in self._sealed_cids or command.cid in self._replies:
            return True
        return self._propose_newest(command)

    def _handle_reconfig_request(self, request: ReconfigRequest) -> None:
        """Wire entry point for admin reconfiguration (live clusters).

        Mirrors :meth:`_handle_client_request`: the requester is registered
        as a pending client so the ordinary ``_complete_command`` path
        acknowledges it when the reconfiguration executes.
        """
        command = request.command
        cached = self._replies.get(command.cid)
        if cached is not None:
            value, epoch, vindex = cached
            self._reply_client(
                request.reply_to, ClientReply(command.cid, value, epoch, vindex)
            )
            return
        self._pending[command.cid] = _PendingReply(request.reply_to, self.now)
        if not self.request_reconfiguration(command):
            self._pending.pop(command.cid, None)
            config = self.newest_config
            if config is not None:
                self.send(
                    request.reply_to,
                    Redirect(command.cid, config.members, config.epoch),
                )

    # ------------------------------------------------------------------
    # Message dispatch & lifecycle
    # ------------------------------------------------------------------

    def on_message(self, payload: Any, sender: NodeId) -> None:
        if isinstance(payload, InstanceMessage):
            self._route_instance_message(payload, sender)
        elif isinstance(payload, ClientRequest):
            self._handle_client_request(payload)
        elif isinstance(payload, RequestBatch):
            # Unpack a coalesced frame; each command takes the ordinary
            # per-command path (dedup, lease reads, redirects, pending),
            # and what is answered on the spot shares one reply frame.
            reply_to = payload.reply_to
            with self._coalesced_replies():
                for command in payload.commands:
                    self._admit_command(command, reply_to)
        elif isinstance(payload, ReconfigRequest):
            self._handle_reconfig_request(payload)
        elif isinstance(payload, EpochAnnounce):
            self._open_epoch(payload.config, prev_members=payload.prev_members)
        elif isinstance(payload, SnapshotRequest):
            self._handle_snapshot_request(payload, sender)
        elif isinstance(payload, SnapshotReply):
            self._handle_snapshot_reply(payload)
        elif isinstance(payload, SnapshotChunkRequest):
            self._handle_chunk_request(payload, sender)
        elif isinstance(payload, SnapshotChunkReply):
            self._handle_chunk_reply(payload, sender)
        elif isinstance(payload, SnapshotUnavailable):
            pass  # the transfer timer will retry another source
        elif isinstance(payload, ObserverSubscribe):
            self._handle_observer_subscribe(sender)
        elif isinstance(payload, ObserverBootstrap):
            self._handle_observer_bootstrap(payload)
        elif isinstance(payload, ObserverUpdate):
            self._handle_observer_update(payload)

    def _route_instance_message(self, message: InstanceMessage, sender: NodeId) -> None:
        if not message.instance.startswith("e"):
            return
        try:
            epoch = int(message.instance[1:])
        except ValueError:
            return
        runtime = self.chain.get(epoch)
        if runtime is None or runtime.engine is None:
            return  # epoch unknown here (yet); peers retry
        if runtime.engine.stopped or not runtime.engine_started:
            return
        runtime.engine.on_message(message.inner, sender)

    def on_crash(self) -> None:
        for runtime in self.chain.values():
            if runtime.engine is not None:
                runtime.engine.stop()
        if self.storage is not None:
            # Simulated crashes leave the store on disk for the replica's
            # next incarnation; closing keeps the dead process from
            # holding (or, in tests, reusing) the write handle.
            self.storage.close()
