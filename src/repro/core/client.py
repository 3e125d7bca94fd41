"""Client library: one lane-and-route core, and its simulator driver.

:class:`ClientCore` holds the client rules once and touches no socket and
no timer. Each command in flight rides a **lane**, a :class:`ClientId`
whose seq only grows and which carries one command until its reply
arrives (the rule the replicas' dedup table rests on; retries reuse the
:class:`CommandId`, so exactly-once holds however often they land). The
**route** is a view of the membership and an index into it: a timeout
moves it on only if the command timed out at its current target, and a
``Redirect`` from a retired replica moves it into the next configuration.

:class:`Client` drives the core in the simulator, closed or open loop,
and the shard director's intent driver on either runtime, both through
:class:`Requester`; :class:`repro.net.client.LiveClient` drives it over sockets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Container, Iterable

from repro.core.runtime import Runtime
from repro.errors import ConfigurationError
from repro.sim.events import Timer
from repro.sim.node import Process
from repro.types import ClientId, Command, CommandId, Membership, NodeId, Time


@dataclass(frozen=True, slots=True)
class ClientRequest:
    """Client -> replica: please execute this command."""

    command: Command
    reply_to: NodeId


@dataclass(frozen=True, slots=True)
class ClientReply:
    """Replica -> client: command executed with this result."""

    cid: CommandId
    value: Any
    epoch: int
    virtual_index: int


@dataclass(frozen=True, slots=True)
class RequestBatch:
    """Client -> replica: execute these commands (one wire frame).

    Wire-level coalescing for pipelined clients: many commands share one
    frame's encode/decode/dispatch overhead. The replica unpacks and
    handles each exactly as an individual :class:`ClientRequest` —
    ordering, dedup, redirects, and replies stay per-command.
    """

    commands: tuple[Command, ...]
    reply_to: NodeId


@dataclass(frozen=True, slots=True)
class ReplyBatch:
    """Replica -> client: replies for commands that executed together.

    Emitted when one decided consensus batch completes several commands
    for the same client; the client demultiplexes it back into individual
    :class:`ClientReply` handling.
    """

    replies: tuple[ClientReply, ...]


@dataclass(frozen=True, slots=True)
class Redirect:
    """Replica -> client: I am retired; talk to these members."""

    cid: CommandId
    members: Membership
    epoch: int


@dataclass(slots=True)
class ClientParams:
    """Client behaviour knobs (simulated seconds).

    ``rate=None`` is a closed loop: a lane issues its next operation when
    its reply arrives. A ``rate`` is an open loop: Poisson arrivals at
    ``rate`` per second, each on a free lane, shed when no lane is free.
    One lane is the client's own identity, ``n`` lanes are ``<name>/<k>``.
    """

    request_timeout: float = 0.5
    start_delay: float = 0.0
    rate: float | None = None
    lanes: int = 1


# An operation generator yields (op, args, size) tuples, or None to stop.
OperationSource = Callable[[], "tuple[str, tuple, int] | None"]


@dataclass(slots=True)
class OpRecord:
    """Client-side record of one completed operation (for metrics/verify)."""

    cid: CommandId
    op: str
    args: tuple
    invoked_at: Time
    returned_at: Time
    value: Any
    retries: int


#: redirects in a row after which a route falls back to every node heard
#: of: redirect chains can loop through stale hints.
REDIRECT_STREAK = 8


@dataclass(slots=True)
class Outstanding:
    """A command on its lane, waiting for its reply."""

    command: Any  # a Command, or a ReconfigCommand from the live client
    invoked_at: Time
    #: the member it was last bound for; its timeout moves the route only
    #: if the route still points there.
    target: NodeId | None = None
    retries: int = 0


class ClientCore:
    """Lanes, outstanding commands and the route of one client."""

    def __init__(
        self,
        view: Iterable[NodeId],
        rng: Any,
        reachable: Container[NodeId] | None = None,
    ):
        self.view: list[NodeId] = sorted(view)
        self.target_index = 0
        #: every node a redirect advertised that the client can reach.
        self.known_nodes: set[NodeId] = set(self.view)
        self.redirect_streak = 0
        #: last seq issued on each lane, kept for the client's lifetime.
        self.seqs: dict[ClientId, int] = {}
        self.free: list[ClientId] = []
        self.outstanding: dict[CommandId, Outstanding] = {}
        self._rng = rng
        self._reachable = reachable

    def use_lanes(self, lanes: list[ClientId]) -> None:
        """Issue on ``lanes`` from now on; what was outstanding is dropped."""
        self.free = lanes[::-1]
        self.outstanding.clear()

    @property
    def target(self) -> NodeId:
        return self.view[self.target_index % len(self.view)]

    def issue(self, bind: Callable[[CommandId], Any], now: Time) -> Outstanding | None:
        """Bind the next command of a free lane; None if every lane is busy."""
        if not self.free:
            return None
        lane = self.free.pop()
        seq = self.seqs.get(lane, 0) + 1
        self.seqs[lane] = seq
        entry = Outstanding(bind(CommandId(lane, seq)), now)
        self.outstanding[entry.command.cid] = entry
        return entry

    def send_to(self, entry: Outstanding) -> NodeId:
        """The member to send ``entry`` to now."""
        entry.target = self.target
        return entry.target

    def failed(self, target: NodeId | None) -> None:
        """``target`` did not answer: move on, unless the route moved already."""
        if target == self.target:
            self.target_index += 1

    def timed_out(self, cid: CommandId) -> Outstanding | None:
        """``cid`` waited a whole timeout; None if it is no longer outstanding."""
        entry = self.outstanding.get(cid)
        if entry is not None:
            entry.retries += 1
            self.failed(entry.target)
        return entry

    def replied(self, cid: CommandId) -> Outstanding | None:
        """``cid`` completed and frees its lane; None for a stale reply."""
        entry = self.outstanding.pop(cid, None)
        if entry is not None:
            self.free.append(cid.client)
            self.redirect_streak = 0
        return entry

    def redirected(self, redirect: Redirect) -> Outstanding | None:
        """Follow a redirect for an outstanding command; None if stale."""
        entry = self.outstanding.get(redirect.cid)
        if entry is None:
            return None
        self.redirect_streak += 1
        members = [
            n for n in redirect.members.sorted_nodes()
            if self._reachable is None or n in self._reachable
        ]
        self.known_nodes.update(members)
        if self.redirect_streak > REDIRECT_STREAK:
            self.view = sorted(self.known_nodes)
            self.target_index += 1
        elif members:
            self.view = members
            self.target_index = self._rng.randint(0, len(members) - 1)
        entry.target = self.target  # bound for the new target
        return entry


class Requester(Process):
    """The per-command retry chain over a :class:`ClientCore`: a send arms
    the command's timeout, a timeout moves the route and resends, a
    ``Redirect`` is followed after a short pause, a reply frees the lane.
    """

    #: stopped with nothing outstanding, or given up on by the harness.
    finished = False

    def __init__(self, sim: Runtime, node: NodeId, core: ClientCore, request_timeout: float):
        super().__init__(sim, node)
        self.core = core
        self.request_timeout = request_timeout
        self._timeouts: dict[CommandId, Timer] = {}

    def completed(self, entry: Outstanding, reply: ClientReply) -> None:
        """``entry`` was answered with ``reply`` (once per command)."""

    def _send(self, entry: Outstanding) -> None:
        command = entry.command
        cid = command.cid
        self.send(
            self.core.send_to(entry),
            ClientRequest(command, self.node),
            size=64 + command.size,
        )
        timer = self._timeouts.get(cid)
        if timer is not None:
            timer.cancel()
        self._timeouts[cid] = self.set_timer(
            self.request_timeout,
            lambda: self._on_timeout(cid),
            label="client-timeout",
        )

    def _on_timeout(self, cid: CommandId) -> None:
        if self.finished:
            return
        entry = self.core.timed_out(cid)
        if entry is not None:
            self.trace("client-retry", cid=str(cid), retry=entry.retries)
            self._send(entry)

    def on_message(self, payload: Any, sender: NodeId) -> None:
        if isinstance(payload, ClientReply):
            self._handle_reply(payload)
        elif isinstance(payload, ReplyBatch):
            for reply in payload.replies:
                self._handle_reply(reply)
        elif isinstance(payload, Redirect):
            self._handle_redirect(payload)

    def _handle_reply(self, reply: ClientReply) -> None:
        entry = self.core.replied(reply.cid)
        if entry is None:
            return  # duplicate or stale reply
        self._timeouts.pop(reply.cid).cancel()
        self.completed(entry, reply)

    def _handle_redirect(self, redirect: Redirect) -> None:
        if self.core.redirected(redirect) is None:
            return
        cid = redirect.cid
        # A short pause stops tight redirect ping-pong from flooding the
        # network between two confused nodes.
        self.set_timer(0.01, lambda: self._resend(cid), label="redirect-resend")

    def _resend(self, cid: CommandId) -> None:
        entry = self.core.outstanding.get(cid)
        if entry is not None and not self.finished:
            self._send(entry)


class Client(Requester):
    """A simulated client: the core's lanes and route on the sim's timers."""

    def __init__(
        self,
        sim: Runtime,
        client: ClientId,
        view: Membership,
        operations: OperationSource,
        params: ClientParams | None = None,
        on_complete: Callable[[OpRecord], None] | None = None,
    ):
        self.params = params if params is not None else ClientParams()
        if self.params.rate is not None and self.params.rate <= 0:
            raise ConfigurationError("open-loop rate must be positive")
        self._rng = sim.rng.fork(f"client/{client}")
        super().__init__(
            sim, NodeId(str(client)), ClientCore(view.nodes, self._rng),
            self.params.request_timeout,
        )
        self.client = client
        self.operations = operations
        self.on_complete = on_complete
        self.records: list[OpRecord] = []
        self.issued = 0
        self.shed = 0  # open-loop arrivals dropped because no lane was free
        #: the operation source ran dry; no further command is issued.
        self.stopped = False
        lanes = self.params.lanes
        self.core.use_lanes(
            [client] if lanes == 1 else [ClientId(f"{client}/{k}") for k in range(lanes)]
        )

    @property
    def view(self) -> Membership:
        return Membership(frozenset(self.core.view))

    @property
    def seq(self) -> int:
        """Seq of the newest command issued on the client's own identity."""
        return self.core.seqs.get(self.client, 0)

    @property
    def outstanding(self) -> int:
        return len(self.core.outstanding)

    # -- issuing ------------------------------------------------------------------

    def on_start(self) -> None:
        self.set_timer(self.params.start_delay, self._start, label="client-start")

    def _start(self) -> None:
        if self.params.rate is not None:
            self._arrive()
            return
        for _ in range(self.params.lanes):
            self._issue()

    def _arrive(self) -> None:
        self._issue()
        if not (self.stopped or self.finished):
            gap = self._rng.expovariate(self.params.rate)
            self.set_timer(gap, self._arrive, label="client-arrival")

    def _issue(self) -> None:
        if not (self.stopped or self.finished):
            operation = self.operations()
            if operation is not None:
                op, args, size = operation
                entry = self.core.issue(
                    lambda cid: Command(cid, op, args, size=size), self.now
                )
                if entry is None:
                    self.shed += 1
                else:
                    self.issued += 1
                    self._send(entry)
                return
            self.stopped = True
        if not (self.finished or self.core.outstanding):
            self.finished = True
            self.trace("client-done", ops=len(self.records))

    # -- replies -----------------------------------------------------------------------

    def completed(self, entry: Outstanding, reply: ClientReply) -> None:
        command = entry.command
        record = OpRecord(
            cid=reply.cid,
            op=command.op,
            args=command.args,
            invoked_at=entry.invoked_at,
            returned_at=self.now,
            value=reply.value,
            retries=entry.retries,
        )
        self.records.append(record)
        if self.on_complete is not None:
            self.on_complete(record)
        if self.params.rate is None:
            # Go through the event queue (zero delay) to avoid unbounded
            # synchronous recursion on fast paths.
            self.set_timer(0.0, self._issue, label="next-op")
        elif self.stopped:
            self._issue()  # finishes once nothing is outstanding
