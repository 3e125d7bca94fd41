"""Client library: request routing, retries, redirection.

A :class:`Client` is a closed-loop process: it issues one command at a
time, waits for the reply, then issues the next (after an optional think
time). Retries reuse the same :class:`repro.types.CommandId`, so the
service's dedup layers guarantee exactly-once execution no matter how many
replicas end up proposing the command.

Routing: the client keeps a *view* of the membership (possibly stale). It
sends to one replica, rotates on timeout, and adopts fresher membership
from ``Redirect`` responses — the standard way clients chase a
reconfiguring service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.runtime import Runtime
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
    """Client behaviour knobs (simulated seconds)."""

    request_timeout: float = 0.5
    start_delay: float = 0.0


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


class Client(Process):
    """Closed-loop client issuing commands against the replicated service."""

    def __init__(
        self,
        sim: Runtime,
        client: ClientId,
        view: Membership,
        operations: OperationSource,
        params: ClientParams | None = None,
        on_complete: Callable[[OpRecord], None] | None = None,
    ):
        super().__init__(sim, NodeId(str(client)))
        self.client = client
        self.view = view
        self.operations = operations
        self.params = params if params is not None else ClientParams()
        self.on_complete = on_complete
        self.seq = 0
        self.records: list[OpRecord] = []
        self.finished = False
        self._current: Command | None = None
        self._invoked_at: Time = 0.0
        self._retries = 0
        self._target_index = 0
        self._timeout: Timer | None = None
        self._rng = sim.rng.fork(f"client/{client}")
        self._known_nodes: set[NodeId] = set(view.nodes)
        self._redirect_streak = 0

    # -- lifecycle --------------------------------------------------------------

    def on_start(self) -> None:
        self.set_timer(self.params.start_delay, self._issue_next, label="client-start")

    def _issue_next(self) -> None:
        if self.finished or self.crashed:
            return
        operation = self.operations()
        if operation is None:
            self.finished = True
            self.trace("client-done", ops=len(self.records))
            return
        op, args, size = operation
        self.seq += 1
        self._current = Command(CommandId(self.client, self.seq), op, args, size=size)
        self._invoked_at = self.now
        self._retries = 0
        self._send_current()

    # -- sending & retries ----------------------------------------------------------

    def _send_current(self) -> None:
        assert self._current is not None
        targets = self.view.sorted_nodes()
        target = targets[self._target_index % len(targets)]
        self.send(
            target,
            ClientRequest(self._current, self.node),
            size=64 + self._current.size,
        )
        if self._timeout is not None:
            self._timeout.cancel()
        self._timeout = self.set_timer(
            self.params.request_timeout, self._on_timeout, label="client-timeout"
        )

    def _on_timeout(self) -> None:
        if self._current is None or self.finished:
            return
        self._retries += 1
        self._target_index += 1
        self.trace("client-retry", cid=str(self._current.cid), retry=self._retries)
        self._send_current()

    # -- replies -----------------------------------------------------------------------

    def on_message(self, payload: Any, sender: NodeId) -> None:
        if isinstance(payload, ClientReply):
            self._handle_reply(payload)
        elif isinstance(payload, ReplyBatch):
            for reply in payload.replies:
                self._handle_reply(reply)
        elif isinstance(payload, Redirect):
            self._handle_redirect(payload)

    def _handle_reply(self, reply: ClientReply) -> None:
        if self._current is None or reply.cid != self._current.cid:
            return  # duplicate or stale reply
        self._redirect_streak = 0
        if self._timeout is not None:
            self._timeout.cancel()
        record = OpRecord(
            cid=reply.cid,
            op=self._current.op,
            args=self._current.args,
            invoked_at=self._invoked_at,
            returned_at=self.now,
            value=reply.value,
            retries=self._retries,
        )
        self._current = None
        self.records.append(record)
        if self.on_complete is not None:
            self.on_complete(record)
        # Go through the event queue (zero delay) to avoid unbounded
        # synchronous recursion on fast paths.
        self.set_timer(0.0, self._issue_next, label="next-op")

    def _handle_redirect(self, redirect: Redirect) -> None:
        if self._current is None or redirect.cid != self._current.cid:
            return
        self._redirect_streak += 1
        self._known_nodes.update(redirect.members.nodes)
        if self._redirect_streak > 8:
            # Redirect chains can loop through stale hints; fall back to
            # every node we have ever heard of and rotate through them.
            self.view = Membership(frozenset(self._known_nodes))
            self._target_index += 1
        elif len(redirect.members) > 0:
            self.view = redirect.members
            self._target_index = self._rng.randint(0, len(redirect.members) - 1)
        # A short pause stops tight redirect ping-pong from flooding the
        # network between two confused nodes.
        self.set_timer(0.01, self._resend_if_current, label="redirect-resend")

    def _resend_if_current(self) -> None:
        if self._current is not None and not self.finished:
            self._send_current()
