"""The reconfigurable replica: composing static SMR instances.

Each replica hosts a *chain* of epochs; epoch ``e`` wraps one static SMR
engine over the fixed member set ``C_e``. The paper's four rules:

* **Seal.** The first ``ReconfigCommand`` decided in an epoch's log (an
  ordinary payload of its engine) seals the epoch at that slot.
* **Cut.** The effective log is the prefix up to the seal: a pure function
  of the agreed decided log, so every member computes the same cut with no
  "stop" API on the black box. Sealing ``e`` opens ``e+1`` over the
  membership the command names; joiners learn of it by ``EpochAnnounce``
  and fetch the boundary (:class:`~repro.core.state_transfer.BoundaryTransfer`)
  unless they track the log as warm standbys
  (:class:`~repro.core.observer.WarmStandby`).
* **Re-propose orphans.** Decisions past the cut are re-proposed into the
  newest epoch; key dedup plus the exactly-once apply layer mean nothing
  acknowledged is lost and nothing executes twice.
* **Order before execute.** Epoch ``e+1`` orders as soon as it is known,
  before its boundary state lands; execution and replies catch up then.
  ``ReconfigParams.pipeline_depth`` gates this: ``None`` is the paper's
  unbounded pipeline, ``1`` stop-the-world, depths between feed F4.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.consensus.interface import Batch, EngineFactory, InstanceMessage, Transport
from repro.core.client import ClientReply, ClientRequest, Redirect, ReplyBatch, RequestBatch
from repro.core.command import ReconfigCommand, ReconfigRequest
from repro.core.epoch import EpochRuntime
from repro.core.observer import OBSERVER_MESSAGES, WarmStandby
from repro.core.runtime import Runtime
from repro.core.state_transfer import TRANSFER_MESSAGES, BoundaryTransfer
from repro.core.statemachine import DedupStateMachine, StateMachine
from repro.errors import ProtocolError, RecoveryError
from repro.metrics.registry import SPAN_RECONFIG, SPAN_RECOVERY, metrics_of
from repro.sim.node import Process
from repro.types import (
    Command, CommandId, Configuration, Decision, EpochId, Membership, NodeId, Time,
)

#: grace before a sealed, fully-executed epoch's engine is stopped.
ENGINE_GC_GRACE = 1.0
#: ``read_mode="follower"``: most seconds of leader silence before a
#: member refuses local reads and sends them down the ordered path.
STALENESS_BOUND = 0.5
#: members re-announce the newest epoch at this period until it seals,
#: so a joiner that missed the (unacknowledged) announce still joins.
ANNOUNCE_INTERVAL = 0.5


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
class EpochClosed:
    """Answer to engine traffic for an epoch that is closed here (sealed,
    fully executed and its engine stopped) from a sender that has not
    executed it fully: no engine will answer that sender again. ``config``
    is the successor configuration and ``prev_members`` (the closed
    epoch's members) hold its boundary.
    """

    config: Configuration
    prev_members: Membership


@dataclass(slots=True)
class ReconfigParams:
    """Composition-layer parameters."""

    engine_factory: EngineFactory
    #: None = unbounded speculation (the paper); 1 = stop-the-world.
    pipeline_depth: int | None = None
    #: period of durable state-machine checkpoints (0 = boundary-only).
    #: Only meaningful on replicas constructed with a ``storage`` store.
    checkpoint_interval: float = 0.0
    #: "log" orders every operation; "lease" serves the app's
    #: ``READ_ONLY_OPS`` locally at the current epoch's leaseholding
    #: leader (linearizable, no log round); "follower" serves them at ANY
    #: caught-up member within :data:`STALENESS_BOUND` of leader contact
    #: (bounded staleness, NOT linearizable — reads scale across members).
    read_mode: str = "log"


# Commit listener: (time, payload, epoch, virtual_index, reply_value).
CommitListener = Callable[[Time, Any, EpochId, int, Any], None]
# Order listener: (time, payload, epoch, slot) — fires when a decision's
# position becomes final, which keeps flowing during a speculative hand-off
# while execution (and client replies) wait for the boundary state.
OrderListener = Callable[[Time, Any, EpochId, int], None]


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
        #: the two seams that own their state: boundary transfer and the
        #: warm-standby stream (each both ends of its protocol).
        self.transfer = BoundaryTransfer(self)
        self.standby = WarmStandby(self, list(observe_from or []))

        self.chain: dict[EpochId, EpochRuntime] = {}
        self.newest_epoch: EpochId = -1
        #: first epoch not fully executed locally.
        self.exec_epoch: EpochId = 0
        self.virtual_index = 0
        self.state: DedupStateMachine | None = None

        #: command -> the client node waiting for its reply.
        self._pending: dict[CommandId, NodeId] = {}
        self._replies: dict[CommandId, tuple[Any, EpochId, int]] = {}
        #: inside :meth:`_coalesced_replies` replies gather here (keyed by
        #: destination) and leave as one ReplyBatch frame per client.
        self._reply_buffer: dict[NodeId, list[ClientReply]] | None = None
        self._sealed_cids: set[CommandId] = set()
        self.committed: list[tuple[Any, EpochId, int]] = []
        self.lease_reads = 0
        self.follower_reads = 0
        #: payloads carried from a sealed epoch's undecided tail into the
        #: next epoch: at the seal, and again from the WAL at boot.
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
        self._genesis_epoch = initial_config.epoch if initial_config is not None else None

        if storage is not None and storage.recovered.has_state:
            self._recover_from_storage()
        elif initial_config is not None:
            if node not in initial_config.members:
                raise ProtocolError(f"{node} bootstrapped with a configuration it is not in")
            self.exec_epoch = initial_config.epoch
            self.open_epoch(initial_config, prev_members=None)
            self.land_boundary(initial_config.epoch, None)  # fresh state
            self._maybe_start_engines()

    # ------------------------------------------------------------------
    # Introspection (tests, examples, the harness) and observability
    # ------------------------------------------------------------------

    @property
    def newest_config(self) -> Configuration | None:
        runtime = self.chain.get(self.newest_epoch)
        return runtime.config if runtime is not None else None

    @property
    def is_retired(self) -> bool:
        config = self.newest_config
        return config is None or self.node not in config.members

    @property
    def leads_newest_epoch(self) -> bool:
        """Whether this replica's engine leads the newest epoch it knows."""
        runtime = self.chain.get(self.newest_epoch)
        return runtime is not None and runtime.engine is not None and runtime.engine.leads()

    def epoch_runtime(self, epoch: EpochId) -> EpochRuntime | None:
        return self.chain.get(epoch)

    def _span(self, epoch: EpochId, phase: str) -> None:
        """Mark one phase (decided, cut, transfer, first-commit) of the
        reconfiguration span producing ``epoch``; the genesis epoch, which
        no reconfiguration produced, gets none."""
        if epoch != self._genesis_epoch:
            self.metrics.span_event(SPAN_RECONFIG, epoch, phase, self.now)

    def _count_commits(self, epoch: EpochId, count: int = 1) -> None:
        self._commits_total.inc(count)
        counter = self._epoch_commits.get(epoch)
        if counter is None:
            counter = self.metrics.counter(f"smr.commits.epoch.{epoch}")
            self._epoch_commits[epoch] = counter
        counter.inc(count)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def _recover_from_storage(self) -> None:
        """Rebuild the epoch chain from the durable store at boot.

        The checkpoint pins the execution frontier; the WAL's epoch-open
        records say which engines to rebuild, and each engine replays its
        own decisions through ``on_decide``, so seals, chain growth and
        execution happen as they did the first time. Catch-up and announces
        heal the rest: we *rejoin* the cluster. Raises
        :class:`RecoveryError` when nothing a chain can be built from is
        stored.
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
        # The recovered base was not (re)produced by a reconfiguration we
        # will observe this lifetime; suppress its reconfig span.
        self._genesis_epoch = base
        if ckpt is not None:
            runtime.executed = ckpt.executed
            # A mid-epoch checkpoint is not the epoch boundary: replay
            # resumes from it, but joiners must fetch the true boundary
            # from someone else.
            runtime.start_state_is_boundary = ckpt.executed == 0
            self.land_boundary(base, {"state": ckpt.app_state, "vindex": ckpt.virtual_index})
            self._last_checkpoint_marker = (ckpt.exec_epoch, ckpt.virtual_index)
        elif base_open.prev_members is None:
            self.land_boundary(base, None)  # genesis, never checkpointed: replay all
        # else: we joined ``base`` and crashed before its boundary landed —
        # leave it unlanded and open_epoch below re-fetches it from
        # base_open.prev_members, like a cold joiner.
        for epoch in sorted(epoch_opens):
            if epoch >= base:
                self.open_epoch(epoch_opens[epoch].config, epoch_opens[epoch].prev_members)
        self.metrics.span_event(SPAN_RECOVERY, self.node, "replayed", self.now)
        self.advance_execution()
        # Re-propose the seal-time tails _overlap_sealed_tail logged: one
        # whose re-proposals never reached an acceptor before the crash
        # exists nowhere but its WAL record. A tail that did decide is
        # screened out by the reply cache / apply-time dedup.
        for record in rec.dirty_overlaps:
            self._carry_over(record.payloads)
            self.trace("dirty-overlap-replay", epoch=record.epoch, payloads=len(record.payloads))
        self.metrics.span_event(SPAN_RECOVERY, self.node, "rejoined", self.now)
        self.trace(
            "recovered", base=base, newest=self.newest_epoch, executed=self.virtual_index,
            wal_records=rec.records, torn_bytes=rec.torn_bytes,
        )

    # ------------------------------------------------------------------
    # Epoch chain management
    # ------------------------------------------------------------------

    def open_epoch(self, config: Configuration, prev_members: Membership | None) -> None:
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
            runtime.engine = self.params.engine_factory(
                Transport(self, f"e{config.epoch}"),
                config.members,
                lambda decision, e=config.epoch: self._on_engine_decide(e, decision),
            )
            # A member that cannot compute the boundary locally must fetch
            # it. "Locally" means hosting the previous epoch's engine or an
            # observer stream; merely *knowing about* the previous epoch
            # (the in/out/in "skipped epoch" case) does not qualify.
            was_in_prev = prev_members is not None and self.node in prev_members
            prev_runtime = self.chain.get(config.epoch - 1)
            warm = (
                not was_in_prev
                and prev_runtime is not None
                and (prev_runtime.engine is not None or self.standby.subscribed())
            )
            if prev_members is not None and not (was_in_prev or warm):
                if not runtime.start_state_ready:
                    self.transfer.begin(config.epoch, prev_members)
            self.trace(
                "epoch-open", epoch=config.epoch, members=str(config.members),
                member=True, warm=warm,
            )
        self._maybe_start_engines()

    def _maybe_start_engines(self) -> None:
        """Start created engines allowed by the speculation gate."""
        depth = self.params.pipeline_depth
        exec_runtime = self.chain.get(self.exec_epoch)
        ready = exec_runtime is not None and exec_runtime.start_state_ready
        frontier = self.exec_epoch if ready else self.exec_epoch - 1
        for epoch in sorted(self.chain):
            runtime = self.chain[epoch]
            if runtime.engine is None or runtime.engine_started:
                continue
            if depth is not None and epoch - frontier > depth - 1:
                continue
            runtime.engine_started = True
            runtime.engine.start()
            self.trace("engine-start", epoch=epoch, speculative=not runtime.start_state_ready)

    def land_boundary(self, epoch: EpochId, state: Any) -> bool:
        """The one place a boundary lands: ``epoch``'s start state becomes
        ``state``, whether this replica executed up to it, fetched it or
        was bootstrapped with it. False when it had already landed."""
        runtime = self.chain.get(epoch)
        if runtime is None or runtime.start_state_ready:
            return False
        runtime.start_state = state
        runtime.start_state_ready = True
        self._span(epoch, "transfer")
        return True

    def adopt_boundary(self, epoch: EpochId) -> None:
        """Execute from a fetched boundary, jumping the execution frontier
        to it when it lies ahead: a replica that skipped an epoch as a member
        (in ``C_{e+1}`` and ``C_{e+3}``, not ``C_{e+2}``) can never execute
        the epoch it is stuck at, and the later boundary subsumes it."""
        if epoch > self.exec_epoch:
            self.trace("boundary-jump", frm=self.exec_epoch, to=epoch)
            # The jumped-over epochs never reach first-commit here: close
            # their reconfiguration spans as aborted, not dangling.
            for skipped in range(self.exec_epoch, epoch):
                if skipped != self._genesis_epoch:
                    self.metrics.abandon_span(SPAN_RECONFIG, skipped, self.now)
            self.exec_epoch = epoch
            self.state = None  # re-initialise from the adopted boundary
        self.advance_execution()

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
                    f"epoch {epoch} slot {decision.slot}: decision contradicts observed entry"
                )
            return
        if decision.slot != len(runtime.effective):
            raise ProtocolError(
                f"epoch {epoch} delivered slot {decision.slot}, "
                f"expected {len(runtime.effective)}"
            )
        self.append_effective(runtime, decision.slot, decision.payload)
        self.advance_execution()

    def append_effective(self, runtime: EpochRuntime, slot: int, payload: Any) -> None:
        """Append one entry to an epoch's effective log (engine or observed)."""
        epoch = runtime.config.epoch
        runtime.effective.append(payload)
        runtime.decided_at.append(self.now)
        if self.order_listener is not None:
            self.order_listener(self.now, payload, epoch, slot)
        self.standby.publish(runtime.config, slot, payload)
        if isinstance(payload, ReconfigCommand) and not runtime.sealed:
            self._span(epoch + 1, "decided")
            self._seal_epoch(runtime, slot, payload)

    def _seal_epoch(self, runtime: EpochRuntime, slot: int, command: ReconfigCommand) -> None:
        runtime.cut_slot = slot
        next_config = Configuration(runtime.config.epoch + 1, command.new_members)
        runtime.next_config = next_config
        self._sealed_cids.add(command.cid)
        self._span(next_config.epoch, "cut")
        self.trace(
            "epoch-seal", epoch=runtime.config.epoch, cut=slot,
            next_members=str(command.new_members),
        )
        was_member = runtime.engine is not None
        self.open_epoch(next_config, prev_members=runtime.config.members)
        if was_member:
            # Only actual members of the sealed epoch announce; observers
            # learn seals second-hand and must not speak for the epoch.
            self._announce_epoch(next_config, runtime.config.members)
            self._overlap_sealed_tail(runtime)

    def _overlap_sealed_tail(self, runtime: EpochRuntime) -> None:
        """Seal-time tail rescue: carry the undecided tail over *now*.

        At the seal the outgoing engine may still hold payloads it has not
        decided (``awaiting``). Left there they reach the new epoch only
        after an orphan round trip in the old one — and never if the old
        quorum died at the seal, so their clients would wait out a request
        timeout. Every member re-proposes them into the new epoch at once.
        A payload that *also* decides by the cut in the old epoch executes
        there first and the new copy deduplicates at apply time; one that
        decides past the cut was an orphan anyway.
        """
        engine = runtime.engine
        if engine is None or engine.stopped:
            return
        tail = list(getattr(engine, "awaiting", {}).values())
        if not tail:
            return
        if self.storage is not None:
            # Durable before the re-proposals can reach a socket: until an
            # engine accepts it the record is the tail's only trace. The
            # sealing command is left out: it already took effect, and
            # _sealed_cids (which screens it from the live re-propose) is
            # not rebuilt by recovery, so a replay would cut an extra epoch.
            durable_tail = [
                p for p in tail
                if not (isinstance(p, ReconfigCommand) and p.cid in self._sealed_cids)
            ]
            if durable_tail:
                self.storage.log_dirty_overlap(runtime.config.epoch, durable_tail)
        self._carry_over(tail)
        self.trace("dirty-overlap", epoch=runtime.config.epoch, payloads=len(tail))

    def _carry_over(self, payloads: Any) -> None:
        for payload in payloads:
            self.dirty_overlaps += 1
            self._m_dirty_overlaps.inc()
            self._repropose_orphan(payload)

    def _announce_epoch(self, config: Configuration, prev_members: Membership) -> None:
        """Announce ``config`` to its members, re-sending until it seals:
        announces carry no ack, and one lost to a partition would strand
        a joiner forever."""
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
            ANNOUNCE_INTERVAL, lambda: self._announce_epoch(config, prev_members),
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
        # We host no engine in any live epoch: we are leaving and cannot
        # carry this command forward. Bounce the waiting client to the new
        # configuration *now*, not after its request timeout — otherwise
        # every hand-off is a timeout-long outage for clients mid-seal.
        client = self._pending.pop(payload.cid, None)
        if client is not None:
            self._redirect(client, payload.cid)

    def _propose_newest(self, payload: Any) -> bool:
        """Propose into the newest *live* epoch we participate in; False
        when there is none (see :meth:`_live_engine`)."""
        engine = self._live_engine()
        if engine is None:
            return False
        engine.propose(payload)
        return True

    def _live_engine(self) -> Any:
        """The engine of the newest *live* epoch we participate in; None
        when every epoch we host an engine for is sealed (we are leaving:
        callers redirect clients instead of minting orphans)."""
        for epoch in sorted(self.chain, reverse=True):
            runtime = self.chain[epoch]
            engine = runtime.engine
            if engine is None or engine.stopped:
                continue
            return None if runtime.sealed else engine
        return None

    # ------------------------------------------------------------------
    # Execution pipeline
    # ------------------------------------------------------------------

    def advance_execution(self) -> None:
        while True:
            runtime = self.chain.get(self.exec_epoch)
            if runtime is None or not runtime.start_state_ready:
                break
            if self.state is None:
                self._initialise_state(runtime)
            while runtime.executed < len(runtime.effective):
                payload = runtime.effective[runtime.executed]
                self._exec_lag.record(self.now - runtime.decided_at[runtime.executed])
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
            # One slot, many commands, each at its own virtual position;
            # replies leave as one frame per client. Plain Commands (the
            # hot path) run inline and count their commits once.
            with self._coalesced_replies():
                state_apply = self.state.apply
                complete = self._complete_command
                commits = self.committed
                listener = self.commit_listener
                executed = 0
                for inner in payload.payloads:
                    if type(inner) is not Command:
                        self._execute(inner, epoch)
                        continue
                    vindex = self.virtual_index
                    self.virtual_index = vindex + 1
                    value = state_apply(inner)
                    complete(inner.cid, value, epoch, vindex)
                    commits.append((inner, epoch, vindex))
                    executed += 1
                    if listener is not None:
                        listener(self.now, inner, epoch, vindex, value)
                if executed:
                    self._count_commits(epoch, executed)
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
        self._count_commits(epoch)
        if self.commit_listener is not None:
            self.commit_listener(self.now, payload, epoch, vindex, value)

    def _complete_command(self, cid: CommandId, value: Any, epoch: EpochId, vindex: int) -> None:
        self._replies[cid] = (value, epoch, vindex)
        client = self._pending.pop(cid, None)
        if client is not None:
            self._reply_client(client, ClientReply(cid, value, epoch, vindex))

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
                self.send(client, replies[0] if len(replies) == 1 else ReplyBatch(tuple(replies)))

    def _finish_epoch(self, runtime: EpochRuntime) -> None:
        assert self.state is not None
        epoch = runtime.config.epoch
        boundary = {"state": self.state.snapshot(), "vindex": self.virtual_index}
        self.transfer.cache(epoch + 1, boundary, self.state.snapshot_bytes())
        self.trace("epoch-executed", epoch=epoch, entries=runtime.executed)
        # Hand the boundary to the next epoch locally, if we host it.
        self.land_boundary(epoch + 1, boundary)
        self.exec_epoch = epoch + 1
        if self.storage is not None:
            # Boundary checkpoint: pins the new epoch's start state and
            # lets the WAL drop everything the finished epoch wrote.
            self._last_checkpoint_marker = (epoch + 1, self.virtual_index)
            self.storage.checkpoint(
                exec_epoch=epoch + 1, executed=0, virtual_index=self.virtual_index,
                app_state=boundary["state"], now=self.now,
            )
        if runtime.engine is not None:
            engine = runtime.engine
            # Peers that stop the epoch before us need not tell us so.
            engine.transport.mark_executed()
            self.set_timer(
                ENGINE_GC_GRACE, lambda: self._gc_engine(epoch, engine), label="engine-gc"
            )

    def _gc_engine(self, epoch: EpochId, engine) -> None:
        # Whatever the engine still held at the seal was carried over by
        # _overlap_sealed_tail; it has nothing left to rescue.
        if not engine.stopped:
            engine.stop()
            self.trace("engine-gc", epoch=epoch)

    # ------------------------------------------------------------------
    # Start-up and periodic checkpoints
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self.transfer.start()
        self.standby.start()
        interval = self.params.checkpoint_interval
        if self.storage is not None and interval > 0:
            # Stagger the members' timers across one interval, so the
            # snapshot encode + fsync never stops a quorum at once.
            config = self.newest_config
            members = config.members.sorted_nodes() if config is not None else []
            phase = members.index(self.node) / len(members) if self.node in members else 0.0
            self.set_timer(interval * (1.0 + phase), self._checkpoint_tick, label="checkpoint")

    def _checkpoint_tick(self) -> None:
        """Write a periodic checkpoint if execution advanced since the last.

        Mid-epoch checkpoints bound recovery replay between epoch
        boundaries; the (epoch, virtual index) marker makes an idle
        replica's ticks free.
        """
        if self.crashed:
            return
        marker = (self.exec_epoch, self.virtual_index)
        if self.state is not None and marker != self._last_checkpoint_marker:
            runtime = self.chain.get(self.exec_epoch)
            self._last_checkpoint_marker = marker
            self.storage.checkpoint(
                exec_epoch=self.exec_epoch,
                executed=runtime.executed if runtime is not None else 0,
                virtual_index=self.virtual_index, app_state=self.state.snapshot(), now=self.now,
            )
        self.set_timer(self.params.checkpoint_interval, self._checkpoint_tick, label="checkpoint")

    # ------------------------------------------------------------------
    # Client interaction
    # ------------------------------------------------------------------

    def _admit_commands(self, commands: Any, reply_to: NodeId) -> None:
        """Admit one frame of commands (client or admin), checking each in
        order: a cached retry is answered, a read-only op may be served
        locally, a retired replica redirects. The rest are registered as
        pending and proposed into the newest live engine, resolved once per
        frame: nothing in the loop can seal an epoch or change membership.
        """
        replies = self._replies
        local_reads = self.params.read_mode != "log" and self.state is not None
        read_only_ops = self.state.inner.READ_ONLY_OPS if local_reads else ()
        retired = self.is_retired
        pending = self._pending
        proposals = []
        for command in commands:
            cid = command.cid
            cached = replies.get(cid)
            if cached is not None:
                value, epoch, vindex = cached
                self._reply_client(reply_to, ClientReply(cid, value, epoch, vindex))
                continue
            if local_reads and command.op in read_only_ops:
                if self._serve_local_read(command, reply_to):
                    continue
            if retired:
                self._redirect(reply_to, cid)
                continue
            pending[cid] = reply_to
            proposals.append(command)
        if not proposals:
            return
        engine = self._live_engine()
        if engine is not None:
            for command in proposals:
                engine.propose(command)
            return
        for command in proposals:
            self._redirect(reply_to, command.cid)

    def _redirect(self, client: NodeId, cid: CommandId) -> None:
        """Send ``client`` to the newest configuration we know (an empty
        one when we know none: the client rotates through its view)."""
        config = self.newest_config
        if config is None:
            self.send(client, Redirect(cid, Membership(frozenset()), -1))
        else:
            self.send(client, Redirect(cid, config.members, config.epoch))

    def _serve_local_read(self, command: Command, reply_to: NodeId) -> bool:
        """Serve a read-only op from local state, or refuse (False) so it
        takes the ordered path.

        Both modes keep the epoch-cut guards: we run the engine of the
        **newest** epoch we know, it is **not sealed** (once sealed, writes
        move to an instance where someone else may already be ordering;
        the seal is ordered by the leaseholder itself, so "not sealed here"
        is authoritative), and execution has caught up with everything we
        ordered. Then the mode's freshness test: ``lease`` holds a valid
        read lease as leader, so no other member can commit a write (the
        read is linearizable); ``follower`` heard from the leader within
        :data:`STALENESS_BOUND`, which caps how stale (NOT linearizable) the
        reply can be.
        """
        runtime = self.chain.get(self.newest_epoch)
        if runtime is None or runtime.engine is None or not runtime.engine_started:
            return False
        if runtime.sealed or self.exec_epoch != runtime.config.epoch:
            return False
        if not runtime.start_state_ready or runtime.executed != len(runtime.effective):
            return False
        if self.state is None:
            return False
        lease = self.params.read_mode == "lease"
        if lease:
            if not runtime.engine.has_read_lease(self.now):
                return False
        elif runtime.engine.read_freshness_age(self.now) > STALENESS_BOUND:
            return False
        # Bypass the dedup layer on purpose: reads mutate nothing and must
        # not advance the client's dedup sequence (a later retry of an
        # *older* write would otherwise be misclassified as a duplicate).
        value = self.state.inner.apply(command)
        if lease:
            self.lease_reads += 1
            self._m_lease_reads.inc()
        else:
            self.follower_reads += 1
            self._m_follower_reads.inc()
        self._reply_client(reply_to, ClientReply(command.cid, value, runtime.config.epoch, -1))
        return True

    def request_reconfiguration(self, command: ReconfigCommand) -> bool:
        """Entry point for admin-driven reconfiguration (see service API)."""
        if command.cid in self._sealed_cids or command.cid in self._replies:
            return True
        return self._propose_newest(command)

    def _handle_reconfig_request(self, request: ReconfigRequest) -> None:
        """Admin reconfiguration over the wire: admitted like a client
        command, except that one which already sealed an epoch here is not
        proposed again and waits for its execution to be acknowledged."""
        cid = request.command.cid
        if cid in self._sealed_cids and cid not in self._replies:
            self._pending[cid] = request.reply_to
            return
        self._admit_commands((request.command,), request.reply_to)

    # ------------------------------------------------------------------
    # Message dispatch & lifecycle
    # ------------------------------------------------------------------

    def on_message(self, payload: Any, sender: NodeId) -> None:
        if isinstance(payload, InstanceMessage):
            self._route_instance_message(payload, sender)
        elif isinstance(payload, ClientRequest):
            self._admit_commands((payload.command,), payload.reply_to)
        elif isinstance(payload, RequestBatch):
            # What a frame's admission answers on the spot (cached
            # retries, local reads) shares one reply frame.
            with self._coalesced_replies():
                self._admit_commands(payload.commands, payload.reply_to)
        elif isinstance(payload, ReconfigRequest):
            self._handle_reconfig_request(payload)
        elif isinstance(payload, EpochAnnounce):
            self.open_epoch(payload.config, prev_members=payload.prev_members)
        elif isinstance(payload, EpochClosed):
            self._on_epoch_closed(payload)
        elif isinstance(payload, TRANSFER_MESSAGES):
            self.transfer.on_message(payload, sender)
        elif isinstance(payload, OBSERVER_MESSAGES):
            self.standby.on_message(payload, sender)

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
        if runtime.engine.stopped:
            if runtime.fully_executed and type(message) is InstanceMessage:
                # Closed here, and the sender has not executed it fully:
                # it missed the cut, and no engine will answer it again.
                self.send(sender, EpochClosed(runtime.next_config, runtime.config.members))
            return
        if runtime.engine_started:
            runtime.engine.on_message(message.inner, sender)

    def _on_epoch_closed(self, closed: EpochClosed) -> None:
        """A peer closed an epoch we are still running: learn its successor,
        stop our engine (nobody will answer it) and leave the epoch by its
        boundary - fetched if we are a member of the successor, and as a
        retiree by redirecting the clients we were holding."""
        config = closed.config
        runtime = self.chain.get(config.epoch - 1)
        if runtime is None or runtime.fully_executed:
            return  # we closed it too; our own grace timer stops the engine
        self.trace("epoch-closed", epoch=config.epoch - 1, members=str(config.members))
        self.open_epoch(config, closed.prev_members)
        if runtime.engine is not None:
            runtime.engine.stop()
        if self.node in config.members:
            if not self.chain[config.epoch].start_state_ready:
                self.transfer.begin(config.epoch, closed.prev_members)
        elif self.is_retired:
            pending, self._pending = self._pending, {}
            for cid, client in pending.items():
                self._redirect(client, cid)

    def on_crash(self) -> None:
        for runtime in self.chain.values():
            if runtime.engine is not None:
                runtime.engine.stop()
        if self.storage is not None:
            # Simulated crashes leave the store on disk for the replica's
            # next incarnation; closing keeps the dead process from
            # holding (or, in tests, reusing) the write handle.
            self.storage.close()

    def on_restart(self) -> None:
        """A sim restart keeps the modelled stable state (the chain, each
        engine's acceptor and decided state) and loses leadership,
        campaigns and timers: the engines of epochs not yet fully
        executed come back as followers, and the start-up timers re-arm."""
        for epoch, runtime in self.chain.items():
            if runtime.engine is not None and epoch >= self.exec_epoch:
                runtime.engine.restart()
                if runtime.engine_started:
                    runtime.engine.start()
        self.on_start()
