"""Open-loop clients: Poisson arrivals independent of completions.

Closed-loop clients (the default in :mod:`repro.core.client`) self-throttle
when the service slows down, which hides availability problems. An
open-loop client keeps issuing at its configured rate regardless — the
honest way to measure what a reconfiguration outage does to latency under
sustained offered load.

Each outstanding command rides a lane of its own, one of
``max_outstanding`` identities ``<client>/<k>``: the dedup table's
one-command-in-flight rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.client import (
    ClientReply,
    ClientRequest,
    OperationSource,
    Redirect,
    ReplyBatch,
)
from repro.errors import ConfigurationError
from repro.sim.node import Process
from repro.sim.runner import Simulator
from repro.types import ClientId, Command, CommandId, Membership, NodeId, Time


@dataclass(slots=True)
class OpenLoopParams:
    """Arrival process and retry policy (simulated seconds)."""

    rate: float = 100.0
    start_delay: float = 0.2
    stop_after: Time | None = None
    request_timeout: float = 0.5
    max_outstanding: int = 256


@dataclass(slots=True)
class OpenLoopRecord:
    """One completed open-loop operation."""

    cid: CommandId
    invoked_at: Time
    returned_at: Time
    value: Any


@dataclass(slots=True)
class _Outstanding:
    command: Command
    invoked_at: Time
    target_index: int


class OpenLoopClient(Process):
    """Fire-and-forget client with Poisson arrivals and per-op retries."""

    def __init__(
        self,
        sim: Simulator,
        client: ClientId,
        view: Membership,
        operations: OperationSource,
        params: OpenLoopParams | None = None,
        on_complete: Callable[[OpenLoopRecord], None] | None = None,
    ):
        super().__init__(sim, NodeId(str(client)))
        if params is not None and params.rate <= 0:
            raise ConfigurationError("open-loop rate must be positive")
        self.client = client
        self.view = view
        self.operations = operations
        self.params = params if params is not None else OpenLoopParams()
        self.on_complete = on_complete
        self.records: list[OpenLoopRecord] = []
        #: the last CommandId of every free lane; an arrival takes one.
        self._free = [
            CommandId(ClientId(f"{client}/{k}"), 0)
            for k in reversed(range(self.params.max_outstanding))
        ]
        self.issued = 0
        self.shed = 0  # arrivals dropped because too many were outstanding
        self.stopped = False
        self._outstanding: dict[CommandId, _Outstanding] = {}
        self._rng = sim.rng.fork(f"openloop/{client}")
        self._target_rotation = 0

    # -- arrival process ----------------------------------------------------

    def on_start(self) -> None:
        self.set_timer(self.params.start_delay, self._arrival, label="ol-start")
        if self.params.stop_after is not None:
            self.set_timer(
                self.params.start_delay + self.params.stop_after,
                self._stop,
                label="ol-stop",
            )

    def _stop(self) -> None:
        self.stopped = True

    def _arrival(self) -> None:
        if self.stopped or self.crashed:
            return
        self._issue()
        gap = self._rng.expovariate(self.params.rate)
        self.set_timer(gap, self._arrival, label="ol-arrival")

    def _issue(self) -> None:
        operation = self.operations()
        if operation is None:
            self.stopped = True
            return
        if not self._free:
            self.shed += 1
            return
        op, args, size = operation
        last = self._free.pop()
        command = Command(CommandId(last.client, last.seq + 1), op, args, size=size)
        entry = _Outstanding(command, self.now, self._target_rotation)
        self._target_rotation += 1
        self._outstanding[command.cid] = entry
        self.issued += 1
        self._send(entry)

    def _send(self, entry: _Outstanding) -> None:
        targets = self.view.sorted_nodes()
        target = targets[entry.target_index % len(targets)]
        self.send(target, ClientRequest(entry.command, self.node), size=64 + entry.command.size)
        cid = entry.command.cid
        self.set_timer(
            self.params.request_timeout,
            lambda: self._retry(cid),
            label="ol-timeout",
        )

    def _retry(self, cid: CommandId) -> None:
        entry = self._outstanding.get(cid)
        if entry is None:
            return  # already completed
        entry.target_index += 1
        self._send(entry)

    # -- completions ----------------------------------------------------------

    def on_message(self, payload: Any, sender: NodeId) -> None:
        if isinstance(payload, ReplyBatch):
            for reply in payload.replies:
                self.on_message(reply, sender)
        elif isinstance(payload, ClientReply):
            entry = self._outstanding.pop(payload.cid, None)
            if entry is None:
                return
            self._free.append(payload.cid)
            record = OpenLoopRecord(
                cid=payload.cid,
                invoked_at=entry.invoked_at,
                returned_at=self.now,
                value=payload.value,
            )
            self.records.append(record)
            if self.on_complete is not None:
                self.on_complete(record)
        elif isinstance(payload, Redirect):
            if len(payload.members) > 0:
                self.view = payload.members
            entry = self._outstanding.get(payload.cid)
            if entry is not None:
                entry.target_index += 1
                self.set_timer(0.01, lambda: self._resend(payload.cid), label="ol-redirect")

    def _resend(self, cid: CommandId) -> None:
        entry = self._outstanding.get(cid)
        if entry is not None:
            self._send(entry)

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)
