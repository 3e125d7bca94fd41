"""Single-decree Paxos (the Synod protocol).

This is the agreement kernel underlying the Multi-Paxos engine: one slot,
one chosen value, classic two-phase structure. It is written against an
abstract ``send`` function rather than the simulator so its safety can be
property-tested exhaustively over adversarial schedules (see
``tests/test_synod.py``), independent of timing.

Roles:

* :class:`SynodAcceptor` — the persistent voter. Its promise/accept state
  is the part Paxos requires to survive crashes.
* :class:`SynodProposer` — drives one ballot through Phase 1 and Phase 2
  and reports the chosen value.

The Multi-Paxos engine reimplements this logic inlined per slot (sharing
Phase 1 across all slots, the standard optimisation); keeping the
single-decree version separate documents the kernel and pins its safety
with direct tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.consensus.ballot import Ballot
from repro.errors import ProtocolError
from repro.types import NodeId


@dataclass(frozen=True, slots=True)
class SynodPrepare:
    ballot: Ballot


@dataclass(frozen=True, slots=True)
class SynodPromise:
    ballot: Ballot
    accepted_ballot: Ballot
    accepted_value: Any


@dataclass(frozen=True, slots=True)
class SynodAccept:
    ballot: Ballot
    value: Any


@dataclass(frozen=True, slots=True)
class SynodAccepted:
    ballot: Ballot


@dataclass(frozen=True, slots=True)
class SynodNack:
    ballot: Ballot
    promised: Ballot


class SynodAcceptor:
    """Acceptor for one decree.

    ``durability`` is any object with the
    :class:`repro.storage.InstanceDurability` surface (the single-decree
    case uses slot 0); it defaults to a no-op so in-memory property tests
    run unchanged. State recorded there is restored on construction,
    which is exactly the persistence Paxos demands of a voter.
    """

    def __init__(self, node: NodeId, durability: Any = None):
        self.node = node
        self.promised: Ballot = Ballot.ZERO
        self.accepted_ballot: Ballot = Ballot.ZERO
        self.accepted_value: Any = None
        if durability is None:
            from repro.storage.store import NULL_DURABILITY

            durability = NULL_DURABILITY
        self.durable = durability
        recovered = self.durable.recover()
        if recovered is not None:
            self.promised = recovered.promised
            if 0 in recovered.accepted:
                self.accepted_ballot, self.accepted_value = recovered.accepted[0]

    def on_prepare(self, msg: SynodPrepare) -> SynodPromise | SynodNack:
        if msg.ballot > self.promised:
            self.promised = msg.ballot
            self.durable.record_promise(msg.ballot)
            return SynodPromise(msg.ballot, self.accepted_ballot, self.accepted_value)
        return SynodNack(msg.ballot, self.promised)

    def on_accept(self, msg: SynodAccept) -> SynodAccepted | SynodNack:
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            self.accepted_ballot = msg.ballot
            self.accepted_value = msg.value
            self.durable.record_accept(0, msg.ballot, msg.value)
            return SynodAccepted(msg.ballot)
        return SynodNack(msg.ballot, self.promised)


class SynodProposer:
    """Proposer driving one ballot.

    The caller supplies ``send(dest, message)``; replies are fed back via
    :meth:`on_promise` / :meth:`on_accepted` / :meth:`on_nack`. When a
    majority accepts, ``on_chosen(value)`` fires exactly once.
    """

    def __init__(
        self,
        node: NodeId,
        acceptors: list[NodeId],
        send: Callable[[NodeId, Any], None],
        on_chosen: Callable[[Any], None],
    ):
        self.node = node
        self.acceptors = list(acceptors)
        self.send = send
        self.on_chosen = on_chosen
        self.quorum = len(self.acceptors) // 2 + 1
        self.ballot: Ballot = Ballot.ZERO
        self.value: Any = None
        self.phase: str = "idle"
        self.chosen = False
        self._promises: dict[NodeId, SynodPromise] = {}
        self._accepts: set[NodeId] = set()
        self.preempted_by: Ballot | None = None

    def start(self, round_number: int, value: Any) -> None:
        """Begin Phase 1 with ballot ``(round_number, self.node)``."""
        if round_number <= self.ballot.round:
            raise ProtocolError("rounds must increase across attempts")
        self.ballot = Ballot(round_number, self.node)
        self.value = value
        self.phase = "prepare"
        self._promises.clear()
        self._accepts.clear()
        self.preempted_by = None
        for acceptor in self.acceptors:
            self.send(acceptor, SynodPrepare(self.ballot))

    def on_promise(self, sender: NodeId, msg: SynodPromise) -> None:
        if self.phase != "prepare" or msg.ballot != self.ballot:
            return
        self._promises[sender] = msg
        if len(self._promises) >= self.quorum:
            self._enter_phase_two()

    def _enter_phase_two(self) -> None:
        # Adopt the highest-ballot previously accepted value, if any:
        # the heart of Paxos safety.
        best = max(self._promises.values(), key=lambda p: p.accepted_ballot)
        if best.accepted_ballot > Ballot.ZERO:
            self.value = best.accepted_value
        self.phase = "accept"
        for acceptor in self.acceptors:
            self.send(acceptor, SynodAccept(self.ballot, self.value))

    def on_accepted(self, sender: NodeId, msg: SynodAccepted) -> None:
        if self.phase != "accept" or msg.ballot != self.ballot:
            return
        self._accepts.add(sender)
        if len(self._accepts) >= self.quorum and not self.chosen:
            self.chosen = True
            self.phase = "done"
            self.on_chosen(self.value)

    def on_nack(self, sender: NodeId, msg: SynodNack) -> None:
        if msg.ballot != self.ballot or self.phase in ("idle", "done"):
            return
        self.phase = "preempted"
        self.preempted_by = msg.promised
