"""The live executor of a :class:`~repro.faults.FailureSchedule`.

:mod:`repro.faults` holds the one fault vocabulary;
:class:`~repro.sim.failures.FailureInjector` executes it in the
simulator, and the :class:`ChaosController` here executes it against a
live TCP cluster:

* **crash** = ``SIGKILL`` of the replica's OS process (fail-stop, no
  goodbye, exactly the paper's model);
* **restart** = respawn of the process — with **total amnesia** on a
  storage-less cluster, or with **crash recovery** (checkpoint + WAL
  replay, see :mod:`repro.storage`) when the cluster runs durable;
* **partition / link drop / delay / loss / heal** = the action itself,
  pushed to every live replica's chaos endpoint (``<node>#chaos``, under
  ``repro serve --chaos``) as a :class:`~repro.net.admin.ChaosCommand`,
  where :meth:`~repro.faults.LinkPolicy.apply` installs it in the
  transport's policy — no processes are harmed, which is the point: a
  partitioned replica keeps running and keeps trying, as a real
  partitioned replica would.

The endpoint lives entirely in the serve wiring (:mod:`repro.net.admin`,
which a serving replica imports instead of this module) — replica and
protocol code cannot see the schedule, the simulator's honesty rule.

The controller, :class:`HistoryRecorder` and
:func:`collect_aligned_spans` are the parts
:func:`repro.net.storm.run_storm_scenario` - the one live scenario loop
(``repro storm``) - assembles into a verified run.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.faults import CrashAt, FailureAction, FailureSchedule, HealAt, RestartAt
from repro.net import codec
from repro.net.admin import ChaosAck, ChaosCommand, chaos_endpoint
from repro.net.client import LiveClient, LiveClientError, request_reply
from repro.net.observe import poll_cluster, reconfig_spans
from repro.types import ClientId, CommandId, NodeId
from repro.verify.histories import History, Operation

#: wire identity of the controller on the chaos endpoints.
CONTROLLER_NAME = "chaos-ctl"
#: seconds a chaos endpoint has to acknowledge one command.
ACK_TIMEOUT = 2.0
#: seconds a restarted replica has to accept connections again.
RESTART_TIMEOUT = 15.0

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.cluster import LocalCluster


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
    error: str | None = None  #: why the action failed; None = applied


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
    ):
        self.cluster = cluster
        self.schedule = schedule
        self.node = NodeId(CONTROLLER_NAME)
        self.client = ClientId(CONTROLLER_NAME)
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
                # The injection log records the attempt and its failure
                # even when the action blows up (e.g. a respawn that never
                # binds its port), so a run cannot look healthier than it
                # was. A RuntimeError or TimeoutError (a respawn that
                # never came up) leaves the rest of the schedule to run;
                # anything else stops the controller.
                error = f"{type(action).__name__} at {action.time}: {exc}"
                self.errors.append(error)
                self.log.append(Injection(
                    action.time, time.monotonic() - t0, action, (), error
                ))
                if isinstance(exc, (RuntimeError, TimeoutError)):
                    continue
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
            self.cluster.restart(
                str(action.node), wait=True, timeout=RESTART_TIMEOUT
            )
            # The replica restarts with an empty LinkPolicy; re-install
            # every active rule so e.g. a partitioned node that crashed
            # and came back stays partitioned until the schedule heals it.
            acked = []
            for active in self._active.values():
                ack = self._push(str(action.node), active)
                if ack is not None and ack.applied:
                    acked.append(f"{action.node}:{active.name}")
            return tuple(acked)
        if isinstance(action, HealAt):
            self._active.pop(action.name, None)
        else:
            self._active[action.name] = action
        acked = []
        for name, proc in self.cluster.procs.items():
            if proc.poll() is None:
                ack = self._push(name, action)
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
        ack = self._push(replica, None)
        if ack is None or not ack.applied or not ack.detail:
            return None
        try:
            return json.loads(ack.detail)
        except ValueError:
            self.errors.append(f"{replica}: undecodable status {ack.detail!r}")
            return None

    def _push(self, replica: str, action: FailureAction | None) -> ChaosAck | None:
        """Deliver one action (None: a status query) to a replica's chaos
        endpoint under a fresh CommandId, and await the ack."""
        try:
            return request_reply(
                self.cluster.addresses[replica], self.node,
                chaos_endpoint(replica),
                ChaosCommand(self._next_cid(), action), ChaosAck,
                ACK_TIMEOUT,
            )
        except (OSError, codec.CodecError) as exc:
            what = "status" if action is None else type(action).__name__
            self.errors.append(f"{replica}: {what} push failed: {exc}")
            return None


# ---------------------------------------------------------------------------
# What the storm loop records
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
    and any fetch errors. The storm loop calls it once per group, and
    ``perf/workloads.py`` for its hand-off spans.

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
