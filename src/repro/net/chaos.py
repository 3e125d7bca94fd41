"""Scheduled fault injection against a live TCP cluster.

The simulator has had declarative chaos since the beginning: a
:class:`~repro.sim.failures.FailureSchedule` armed by a
:class:`~repro.sim.failures.FailureInjector`. This module ports that
subsystem to the live runtime so the same schedule vocabulary runs against
real processes and real sockets:

* **crash** = ``SIGKILL`` of the replica's OS process (fail-stop, no
  goodbye, exactly the paper's model);
* **restart** = respawn of the process — with **total amnesia** on a
  storage-less cluster, or with **crash recovery** (checkpoint + WAL
  replay, see :mod:`repro.storage`) when the cluster runs durable;
* **partition / link drop / delay / loss** = transport-level, through the
  :class:`~repro.net.transport.LinkPolicy` hooks — no processes are
  harmed, which is the point: a partitioned replica keeps running and
  keeps trying, as a real partitioned replica would.

Link rules reach the replicas over the wire: each ``repro serve --chaos``
process registers a **chaos endpoint** (``<node>#chaos``) on its
transport, and the :class:`ChaosController` pushes
:class:`~repro.net.admin.ChaosCommand` frames to it. The endpoint lives
entirely in the serve wiring (:mod:`repro.net.admin`, which a serving
replica imports instead of this module) — replica/protocol code cannot
see the schedule, preserving the simulator's honesty rule.

On top of the controller, :func:`run_chaos_scenario` closes the
correctness loop for live runs: a workload client records a
client-observed :class:`~repro.verify.histories.History` while a seeded
schedule crashes, partitions, and heals the cluster around a live
reconfiguration, and the recorded history is fed to the same
Wing–Gong linearizability checker the simulator uses. Exposed as the
``repro chaos`` CLI subcommand.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from repro.net import codec
from repro.net.admin import ChaosAck, ChaosCommand, chaos_endpoint
from repro.net.client import LiveClient, LiveClientError, request_reply
from repro.net.observe import poll_cluster, reconfig_spans
from repro.sim.failures import (
    CrashAt,
    DelayLinkAt,
    DropLinkAt,
    FailureAction,
    FailureSchedule,
    HealAt,
    LoseLinkAt,
    PartitionAt,
    RestartAt,
)
from repro.types import ClientId, CommandId, NodeId
from repro.verify.histories import History, Operation
from repro.verify.linearizability import LinearizabilityResult, check_kv_linearizable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.cluster import LocalCluster


def _link_command(action: FailureAction, cid: CommandId) -> ChaosCommand | None:
    """The :class:`ChaosCommand` equivalent of a transport-level action."""
    if isinstance(action, PartitionAt):
        return ChaosCommand(cid, "partition", action.name, action.side_a, action.side_b)
    if isinstance(action, HealAt):
        return ChaosCommand(cid, "heal", action.name)
    if isinstance(action, DropLinkAt):
        return ChaosCommand(cid, "drop", action.name, (action.src,), (action.dst,))
    if isinstance(action, DelayLinkAt):
        return ChaosCommand(
            cid, "delay", action.name, (action.src,), (action.dst,), action.seconds
        )
    if isinstance(action, LoseLinkAt):
        return ChaosCommand(
            cid, "lose", action.name, (action.src,), (action.dst,), action.rate
        )
    return None


# ---------------------------------------------------------------------------
# The controller
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Injection:
    """One executed schedule entry, for the run's injection log."""

    scheduled_at: float  #: schedule offset (seconds from controller start)
    applied_at: float  #: wall-clock offset it actually ran at
    action: FailureAction
    acks: tuple[str, ...]  #: replicas that acknowledged (link actions only)


class ChaosController:
    """Execute a :class:`FailureSchedule` against a live :class:`LocalCluster`.

    Wall-clock semantics: action times are offsets in seconds from
    :meth:`run`'s start. Crashes are ``SIGKILL``; restarts respawn the
    process (and then **re-push every active link rule** to the restarted
    replica, which comes back with an empty policy — the window where a
    freshly restarted node briefly heard the far side is exactly the kind
    of timing bug this subsystem exists to flush out). Link rules are
    broadcast to every live replica; unreachable replicas are tolerated
    because the reachable side enforces partitions on both send and
    receive.

    The injection order is ``schedule.sorted_actions()`` — deterministic
    for a given schedule, so seeded runs inject identically; the
    :attr:`log` records what actually ran and when.
    """

    def __init__(
        self,
        cluster: "LocalCluster",
        schedule: FailureSchedule,
        *,
        name: str = "chaos-ctl",
        ack_timeout: float = 2.0,
        restart_timeout: float = 15.0,
    ):
        self.cluster = cluster
        self.schedule = schedule
        self.node = NodeId(name)
        self.client = ClientId(name)
        self.ack_timeout = ack_timeout
        self.restart_timeout = restart_timeout
        self.plan: list[FailureAction] = schedule.sorted_actions()
        self.log: list[Injection] = []
        self.errors: list[str] = []
        #: link rules currently installed (name -> action), re-pushed to
        #: restarted replicas so amnesia does not heal a partition early.
        self._active: dict[str, FailureAction] = {}
        self._seq = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: monotonic instant :meth:`run` started — every ``applied_at``
        #: offset in the log (and any aligned metrics span) is relative
        #: to this, so it is the run's shared timebase.
        self.t0: float | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ChaosController":
        """Run the schedule on a daemon thread (wall clock starts now)."""
        self._thread = threading.Thread(target=self.run, name="chaos", daemon=True)
        self._thread.start()
        return self

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def stop(self) -> None:
        """Abort between actions (the current action still completes)."""
        self._stop.set()

    def run(self) -> list[Injection]:
        """Execute the whole plan; blocking. Returns the injection log."""
        t0 = self.t0 = time.monotonic()
        for action in self.plan:
            delay = t0 + action.time - time.monotonic()
            if delay > 0 and self._stop.wait(delay):
                break
            if self._stop.is_set():
                break
            try:
                acks = self._apply(action)
            except Exception as exc:
                # The injection log must record the attempt even when the
                # action blows up (e.g. a respawn that never binds its
                # port raises from deep inside the cluster harness) —
                # otherwise the report silently shows fewer injections
                # than the schedule and the run looks healthier than it
                # was. Log first, then let the failure propagate.
                self.errors.append(
                    f"{type(action).__name__} at {action.time}: {exc}"
                )
                self.log.append(
                    Injection(action.time, time.monotonic() - t0, action, ())
                )
                raise
            self.log.append(
                Injection(action.time, time.monotonic() - t0, action, acks)
            )
        return self.log

    # -- applying actions ---------------------------------------------------

    def _apply(self, action: FailureAction) -> tuple[str, ...]:
        if isinstance(action, CrashAt):
            self.cluster.kill(str(action.node))
            return ()
        if isinstance(action, RestartAt):
            try:
                self.cluster.restart(
                    str(action.node), wait=True, timeout=self.restart_timeout
                )
            except (RuntimeError, TimeoutError) as exc:
                self.errors.append(f"restart {action.node}: {exc}")
                return ()
            # The replica restarts with an empty LinkPolicy; re-install
            # every active rule so e.g. a partitioned node that crashed
            # and came back stays partitioned until the schedule heals it.
            acked = []
            for active in self._active.values():
                command = _link_command(active, self._next_cid())
                if command is None:
                    continue
                ack = self._push(str(action.node), command)
                if ack is not None and ack.applied:
                    acked.append(f"{action.node}:{command.name}")
            return tuple(acked)
        command = _link_command(action, self._next_cid())
        if command is None:  # pragma: no cover - exhaustive over actions
            self.errors.append(f"unknown action {action!r}")
            return ()
        if isinstance(action, HealAt):
            self._active.pop(action.name, None)
        else:
            self._active[action.name] = action
        return self._broadcast(command)

    def _broadcast(self, command: ChaosCommand) -> tuple[str, ...]:
        """Push one rule to every live replica; returns who acked."""
        acked = []
        for name, proc in self.cluster.procs.items():
            if proc.poll() is not None:
                continue
            # Dedicated CommandId per (rule, replica) so acks correlate.
            per_node = ChaosCommand(
                self._next_cid(), command.op, command.name,
                command.side_a, command.side_b, command.value,
            )
            ack = self._push(name, per_node)
            if ack is not None and ack.applied:
                acked.append(name)
        return tuple(acked)

    def _next_cid(self) -> CommandId:
        self._seq += 1
        return CommandId(self.client, self._seq)

    def recovery_status(self, replica: str) -> dict[str, Any] | None:
        """Ask one replica's chaos endpoint for its durability status.

        Returns the replica's status dict (see ``ReplicaStore.status``,
        plus whatever the serve wiring adds), or None when the replica is
        unreachable or runs without a status hook.
        """
        ack = self._push(replica, ChaosCommand(self._next_cid(), "status"))
        if ack is None or not ack.applied or not ack.detail:
            return None
        try:
            return json.loads(ack.detail)
        except ValueError:
            self.errors.append(f"{replica}: undecodable status {ack.detail!r}")
            return None

    def _push(self, replica: str, command: ChaosCommand) -> ChaosAck | None:
        """Deliver one command to a replica's chaos endpoint, await the ack."""
        try:
            return request_reply(
                self.cluster.addresses[replica], self.node,
                chaos_endpoint(replica), command, ChaosAck, self.ack_timeout,
            )
        except (OSError, codec.CodecError) as exc:
            self.errors.append(f"{replica}: {command.op} push failed: {exc}")
            return None


# ---------------------------------------------------------------------------
# Workload + verification: the closed loop
# ---------------------------------------------------------------------------


class HistoryRecorder:
    """Record a client-observed history around a :class:`LiveClient`.

    Every :meth:`submit` becomes one
    :class:`~repro.verify.histories.Operation` with wall-clock
    invocation/response times; a request the client gives up on is
    recorded as **pending** (``returned_at=None``) — it may still commit
    inside the cluster after we stopped waiting, and the linearizability
    checker soundly considers both possibilities.
    """

    def __init__(self, client: "LiveClient", t0: float | None = None):
        self.client = client
        #: timebase for invocation/response instants. Recorders whose
        #: operations are merged into ONE history must share a t0 —
        #: per-recorder clocks would skew real-time order across clients.
        self._t0 = time.monotonic() if t0 is None else t0
        self.operations: list[Operation] = []

    def submit(
        self, op: str, args: tuple[Any, ...], size: int = 64,
        deadline: float = 10.0,
    ) -> Any | None:
        invoked_at = time.monotonic() - self._t0
        try:
            reply = self.client.submit(op, args, size=size, deadline=deadline)
        except LiveClientError:
            reply = None
        self.operations.append(Operation(
            cid=CommandId(self.client.client, self.client.seq),
            op=op, args=tuple(args), invoked_at=invoked_at,
            returned_at=None if reply is None else time.monotonic() - self._t0,
            value=None if reply is None else reply.value,
        ))
        return reply

    def history(self) -> History:
        return History(self.operations)


def collect_aligned_spans(
    addresses: dict, live: list[str], _retired: None, controller_t0: float
):
    """Poll live replicas' #metrics and align reconfig spans to ``t0``.

    Returns ``(fetched, aligned, errors)``: the raw snapshots, the
    reconfiguration spans re-based onto the controller's monotonic
    timebase (node -> epoch -> phase -> seconds from controller start),
    and any fetch errors. Shared by the chaos and storm drivers so both
    produce the same fault-aligned timeline shape.

    ``_retired`` is the slot of the deleted wire-format selector and is
    ignored: ``perf/workloads.py`` passes ``None`` there positionally and
    ``perf/`` only changes in a ``[benchmark]`` PR, which drops both.
    """
    fetched, errors = poll_cluster(addresses, live)
    aligned: dict[str, dict[str, dict[str, float]]] = {}
    for node, snap in fetched.items():
        node_spans = reconfig_spans(snap.snapshot)
        if node_spans:
            aligned[node] = {
                epoch: {
                    phase: snap.local_time(at) - controller_t0
                    for phase, at in phases.items()
                }
                for epoch, phases in node_spans.items()
            }
    return fetched, aligned, errors


def canonical_schedule(
    leader: str, others: Iterable[str], joiner: str, *, seed: int = 42,
    scale: float = 1.0,
) -> FailureSchedule:
    """The canonical live chaos scenario (EXPERIMENTS T10), seeded.

    Offsets are wall-clock seconds from controller start, jittered per
    seed (same seed -> same schedule -> same injection order):

    1. crash one non-leader replica (``SIGKILL``), chosen by the seed;
    2. restart it (amnesia; catch-up re-educates it);
    3. partition the **epoch-0 leader** (the lowest member id campaigns
       first, so ``leader`` should be the first initial member) away from
       everyone else — the workload then drives an epoch cut that votes
       the unreachable leader out while it still believes it leads;
    4. heal, letting the deposed leader discover its retirement.
    """
    rng = random.Random(seed)
    others = list(others)
    victim = rng.choice(others)

    def jitter(offset: float) -> float:
        return round(offset * scale * rng.uniform(0.9, 1.1), 3)

    schedule = FailureSchedule()
    schedule.crash(jitter(1.0), victim)
    schedule.restart(jitter(2.0), victim)
    schedule.partition(
        jitter(3.4), "cut-leader", [leader], [*others, joiner]
    )
    schedule.heal(jitter(5.6), "cut-leader")
    return schedule


@dataclass(slots=True)
class ChaosReport:
    """Outcome of one :func:`run_chaos_scenario` run."""

    ok: bool
    linearizable: "LinearizabilityResult"
    injections: list[Injection]
    history: History
    reconfigured: bool
    final_members: tuple[str, ...]
    elapsed: float
    seed: int
    log_dir: str
    errors: list[str] = field(default_factory=list)
    #: reconfiguration spans fetched from the replicas' #metrics
    #: endpoints, clock-aligned onto the injection log's timebase:
    #: node -> new-epoch id -> phase -> seconds from controller start.
    spans: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    #: durable runs only: node -> wal./recovery./checkpoint counters and
    #: recovery-duration summary extracted from each #metrics snapshot.
    recovery: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: local-read runs only: node -> smr.* read counters, so callers can
    #: assert the fast path actually served reads during the schedule
    #: (a lease-mode verdict over zero lease reads proves nothing).
    read_counters: dict[str, dict[str, int]] = field(default_factory=dict)

    def span_overlaps(self, at: float) -> list[str]:
        """Spans in flight at offset ``at`` (``node:epoch`` labels).

        A span is "in flight" between its earliest and latest recorded
        phase — for a complete span, decided through first-commit. This
        is what annotates each injection with the hand-offs it landed in
        the middle of.
        """
        return [
            f"{node}:epoch {epoch}"
            for node, per_epoch in sorted(self.spans.items())
            for epoch, phases in sorted(per_epoch.items())
            if phases and min(phases.values()) <= at <= max(phases.values())
        ]

    def timeline(self) -> list[dict]:
        """Injections and span phases merged into one ordered event list."""
        events: list[dict] = []
        for node, per_epoch in sorted(self.spans.items()):
            for epoch, phases in sorted(per_epoch.items()):
                for phase, at in sorted(phases.items(), key=lambda kv: kv[1]):
                    events.append({
                        "at": round(at, 4), "kind": "span",
                        "node": node, "epoch": epoch, "phase": phase,
                    })
        for injection in self.injections:
            events.append({
                "at": round(injection.applied_at, 4), "kind": "injection",
                "action": type(injection.action).__name__,
                "detail": str(injection.action),
                "scheduled_at": injection.scheduled_at,
                "overlapping_spans": self.span_overlaps(injection.applied_at),
            })
        events.sort(key=lambda event: event["at"])
        return events

    def write_timeline(self, path: Any) -> None:
        """Write the fault-aligned timeline as JSON (a CI artifact)."""
        payload = {
            "seed": self.seed,
            "elapsed": round(self.elapsed, 3),
            "final_members": list(self.final_members),
            "reconfigured": self.reconfigured,
            "linearizable": self.linearizable.ok,
            "events": self.timeline(),
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    def write_recovery(self, path: Any) -> None:
        """Write the per-node recovery metrics snapshot as JSON (CI artifact)."""
        payload = {
            "seed": self.seed,
            "linearizable": self.linearizable.ok,
            "nodes": self.recovery,
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def lines(self) -> list[str]:
        """Human-readable summary (one string per line)."""
        out = [
            f"chaos run: seed={self.seed} elapsed={self.elapsed:.1f}s "
            f"(replica logs: {self.log_dir})",
            "injection log:",
        ]
        for injection in self.injections:
            during = self.span_overlaps(injection.applied_at)
            out.append(
                f"  t={injection.applied_at:6.2f}s "
                f"(scheduled {injection.scheduled_at:.2f}s) "
                f"{type(injection.action).__name__} {injection.action}"
                + (f"  [during hand-off: {', '.join(during)}]" if during else "")
            )
        for node, per_epoch in sorted(self.spans.items()):
            for epoch, phases in sorted(per_epoch.items()):
                marks = " ".join(
                    f"{phase}@{phases[phase]:.2f}s"
                    for phase in ("decided", "cut", "transfer", "first-commit")
                    if phase in phases
                )
                out.append(f"  span {node} -> epoch {epoch}: {marks}")
        completed = len(self.history.completed)
        pending = len(self.history.pending)
        out.append(
            f"history: {completed} completed + {pending} pending operations; "
            f"reconfigured={'yes' if self.reconfigured else 'NO'} "
            f"-> members {','.join(self.final_members)}"
        )
        result = self.linearizable
        verdict = "LINEARIZABLE" if result.ok else (
            f"NOT LINEARIZABLE (key {result.failing_key!r})"
        )
        out.append(
            f"verdict: {verdict} "
            f"({result.checked_ops} ops over {result.checked_keys} keys)"
        )
        for error in self.errors:
            out.append(f"  note: {error}")
        return out


def run_chaos_scenario(
    *,
    replicas: int = 3,
    seed: int = 42,
    log_dir: Any = None,
    keys: int = 8,
    op_interval: float = 0.02,
    request_timeout: float = 0.5,
    scale: float = 1.0,
    schedule: FailureSchedule | None = None,
    verbose: bool = False,
    durable: bool = False,
    batching: bool = False,
    read_mode: str | None = None,
) -> ChaosReport:
    """Run a seeded failure schedule against a live cluster and verify it.

    Closes the loop the simulator has always had: workload in, chaos in
    the middle, a client-observed history out, a linearizability verdict
    at the end. Mid-schedule (during the leader partition for the
    canonical schedule) the workload client drives a live RECONFIGURE
    that replaces the isolated leader with a standby joiner.

    With ``durable=True`` every replica runs with a ``--data-dir``, so
    the schedule's restart comes back through crash recovery instead of
    amnesia; each node's wal/recovery counters land in
    :attr:`ChaosReport.recovery`.

    With ``batching=True`` every replica runs the batched, pipelined
    commit path (``--batch-delay 2 --window 16``), so the Wing–Gong
    verdict covers batch demultiplexing and batch/epoch-cut interaction
    under the same crash/partition/reconfigure schedule.

    With ``read_mode="lease"`` (or ``"follower"``) every replica serves
    read-only operations through that local read path. The canonical
    schedule partitions the epoch-0 leader — in lease mode that is the
    leaseholder — away from the majority right before the RECONFIGURE
    that votes it out, so the verdict covers exactly the hazard the
    lease machinery must survive: a deposed leaseholder serving reads
    while a new epoch starts ordering writes without it. (Follower mode
    is bounded-staleness by design, so its histories are checked for
    progress, not linearizability — see the lease tests.)
    """
    from repro.net.cluster import LocalCluster

    started = time.monotonic()
    cluster = LocalCluster(
        replicas=replicas, reserve=2, seed=seed,
        log_dir=log_dir, chaos=True, verbose=verbose, durable=durable,
        batch_delay_ms=2.0 if batching else 0.0,
        window=16 if batching else 0,
        read_mode=read_mode,
    )
    with cluster:
        cluster.start(timeout=20.0)
        joiner = cluster.reserved()[0]
        cluster.spawn(joiner)
        cluster.wait_ready([joiner], timeout=15.0)

        leader, others = cluster.initial[0], cluster.initial[1:]
        if schedule is None:
            schedule = canonical_schedule(
                leader, others, joiner, seed=seed, scale=scale
            )
        plan = schedule.sorted_actions()
        end_of_schedule = max((a.time for a in plan), default=0.0)
        # Cut the epoch between the last partition and the first heal (the
        # window the schedule is built to stress); fall back to mid-run.
        partition_times = [a.time for a in plan if isinstance(a, PartitionAt)]
        heal_times = [a.time for a in plan if isinstance(a, HealAt)]
        if partition_times and heal_times:
            reconfigure_at = (max(partition_times) + min(heal_times)) / 2
        else:
            reconfigure_at = end_of_schedule / 2

        controller = ChaosController(cluster, schedule).start()
        client = LiveClient(
            "chaos-cli", cluster.addresses, view=cluster.initial,
            request_timeout=request_timeout,
        )
        recorder = HistoryRecorder(client)
        workload_rng = random.Random(seed)
        target_members = (*others, joiner)
        reconfigured = False
        counter = 0
        with client:
            t0 = time.monotonic()
            while time.monotonic() - t0 < end_of_schedule + 1.0:
                offset = time.monotonic() - t0
                if not reconfigured and offset >= reconfigure_at:
                    try:
                        client.reconfigure(target_members, deadline=25.0)
                        reconfigured = True
                    except LiveClientError as exc:
                        controller.errors.append(f"reconfigure: {exc}")
                        reconfigured = True  # do not retry with a new epoch
                    continue
                key = f"k{workload_rng.randrange(keys)}"
                if workload_rng.random() < 0.7:
                    counter += 1
                    recorder.submit("set", (key, counter), deadline=8.0)
                else:
                    recorder.submit("get", (key,), size=32, deadline=8.0)
                time.sleep(op_interval)
            # Final phase: the cluster is healed; read every key back with
            # generous deadlines so the history ends on settled state.
            for i in range(keys):
                recorder.submit("get", (f"k{i}",), size=32, deadline=15.0)
        controller.stop()
        controller.join(timeout=30.0)
        # While the replicas are still up, pull their #metrics snapshots
        # and align every reconfiguration span onto the injection log's
        # timebase (seconds from controller start) — the fault-aligned
        # hand-off timeline ISSUE 4 asks for.
        controller_t0 = controller.t0 if controller.t0 is not None else started
        live = [name for name, proc in cluster.procs.items() if proc.poll() is None]
        fetched, aligned_spans, fetch_errors = collect_aligned_spans(
            cluster.addresses, live, None, controller_t0
        )
        recovery: dict[str, dict[str, Any]] = {}
        if durable:
            for node, snap in fetched.items():
                recovery[node] = {
                    "counters": {
                        name: value
                        for name, value in sorted(snap.snapshot.counters.items())
                        if name.startswith(("wal.", "recovery."))
                    },
                    "recovery_duration": snap.snapshot.histograms.get(
                        "recovery.duration", {}
                    ),
                }
        read_counters: dict[str, dict[str, int]] = {}
        if read_mode is not None:
            for node, snap in fetched.items():
                read_counters[node] = {
                    name: int(value)
                    for name, value in sorted(snap.snapshot.counters.items())
                    if name.startswith("smr.")
                }
    history = recorder.history()
    result = check_kv_linearizable(history)
    # Follower mode trades linearizability for bounded staleness by
    # design: its run is gated on progress + reconfiguration only, while
    # the oracle's verdict stays recorded for inspection. Lease mode is
    # claimed linearizable and gates on the verdict like ordered reads.
    lin_ok = result.ok or read_mode == "follower"
    return ChaosReport(
        ok=lin_ok and reconfigured,
        linearizable=result,
        injections=list(controller.log),
        history=history,
        reconfigured=reconfigured,
        final_members=tuple(target_members),
        elapsed=time.monotonic() - started,
        seed=seed,
        log_dir=str(cluster.log_dir),
        errors=list(controller.errors) + fetch_errors,
        spans=aligned_spans,
        recovery=recovery,
        read_counters=read_counters,
    )
