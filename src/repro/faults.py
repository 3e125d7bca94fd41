"""The fault model both runtimes share: what goes wrong, when, on which link.

A :class:`FailureSchedule` lists timed actions (:data:`FailureAction`),
kept out of protocol code so protocols cannot "see" the schedule. ``time`` is
seconds on the executor's clock: virtual under
:class:`repro.sim.failures.FailureInjector`, wall-clock from the start of
the run under :class:`repro.net.chaos.ChaosController`. :class:`CrashAt`
and :class:`RestartAt` act on a process; every other action installs or
heals a named rule in a :class:`LinkPolicy`, which the simulator's
network and the live transport consult alike (a live replica receives
the action itself over the chaos wire).

The transport imports this module, so it imports only :mod:`repro.types`
and :mod:`repro.errors`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import ConfigurationError
from repro.types import NodeId, Time

#: wildcard node pattern accepted by the one-way link rules.
ANY_NODE = "*"


@dataclass(frozen=True, slots=True)
class CrashAt:
    """Crash ``node`` at ``time`` (fail-stop unless a RestartAt follows)."""

    time: Time
    node: NodeId


@dataclass(frozen=True, slots=True)
class RestartAt:
    """Restart a previously crashed ``node`` at ``time``."""

    time: Time
    node: NodeId


@dataclass(frozen=True, slots=True)
class PartitionAt:
    """Install a named partition between two groups at ``time``."""

    time: Time
    name: str
    side_a: tuple[NodeId, ...]
    side_b: tuple[NodeId, ...]


@dataclass(frozen=True, slots=True)
class HealAt:
    """Heal a named partition (or named link rule) at ``time``."""

    time: Time
    name: str


@dataclass(frozen=True, slots=True)
class DropLinkAt:
    """Drop all ``src -> dst`` traffic (one-way) from ``time`` until healed.

    ``src``/``dst`` may be :data:`ANY_NODE` to match any node.
    """

    time: Time
    name: str
    src: NodeId
    dst: NodeId


@dataclass(frozen=True, slots=True)
class DelayLinkAt:
    """Add ``seconds`` of one-way latency on ``src -> dst`` until healed."""

    time: Time
    name: str
    src: NodeId
    dst: NodeId
    seconds: float


@dataclass(frozen=True, slots=True)
class LoseLinkAt:
    """Drop ``src -> dst`` frames with probability ``rate`` until healed."""

    time: Time
    name: str
    src: NodeId
    dst: NodeId
    rate: float


FailureAction = (
    CrashAt | RestartAt | PartitionAt | HealAt
    | DropLinkAt | DelayLinkAt | LoseLinkAt
)


@dataclass(slots=True)
class FailureSchedule:
    """An ordered list of failure actions."""

    actions: list[FailureAction] = field(default_factory=list)

    def crash(self, time: Time, node: str) -> "FailureSchedule":
        self.actions.append(CrashAt(time, NodeId(node)))
        return self

    def restart(self, time: Time, node: str) -> "FailureSchedule":
        self.actions.append(RestartAt(time, NodeId(node)))
        return self

    def partition(
        self, time: Time, name: str, side_a: Sequence[str], side_b: Sequence[str]
    ) -> "FailureSchedule":
        self.actions.append(
            PartitionAt(
                time,
                name,
                tuple(NodeId(n) for n in side_a),
                tuple(NodeId(n) for n in side_b),
            )
        )
        return self

    def heal(self, time: Time, name: str) -> "FailureSchedule":
        self.actions.append(HealAt(time, name))
        return self

    def drop_link(
        self, time: Time, name: str, src: str, dst: str
    ) -> "FailureSchedule":
        self.actions.append(DropLinkAt(time, name, NodeId(src), NodeId(dst)))
        return self

    def delay_link(
        self, time: Time, name: str, src: str, dst: str, seconds: float
    ) -> "FailureSchedule":
        if seconds < 0:
            raise ConfigurationError(f"negative link delay {seconds}")
        self.actions.append(
            DelayLinkAt(time, name, NodeId(src), NodeId(dst), seconds)
        )
        return self

    def lose_link(
        self, time: Time, name: str, src: str, dst: str, rate: float
    ) -> "FailureSchedule":
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"loss rate {rate} outside [0, 1]")
        self.actions.append(LoseLinkAt(time, name, NodeId(src), NodeId(dst), rate))
        return self

    def sorted_actions(self) -> list[FailureAction]:
        """Actions in execution order: by time, insertion order breaking ties.

        This is the injection order every executor follows, so two runs of
        the same schedule inject identically regardless of runtime.
        """
        return sorted(
            self.actions, key=lambda a: a.time
        )  # sorted() is stable: equal times keep insertion order


class LinkPolicy:
    """The installed link rules, consulted on every send and delivery.

    A rule is the link action that installed it, keyed by its name: a
    :class:`PartitionAt` blocks both ways between its sides, a
    :class:`DropLinkAt` blocks one way, a :class:`DelayLinkAt` adds
    one-way latency and a :class:`LoseLinkAt` drops that fraction of
    messages, drawing from this policy's own RNG so runs are
    reproducible. :meth:`apply` installs an action, or removes the rule a
    :class:`HealAt` names. ``src``/``dst`` accept :data:`ANY_NODE`.

    The simulator's :class:`~repro.sim.network.Network` and the live
    :class:`~repro.net.transport.TcpTransport` each hold one and ask it
    the same three questions: :meth:`should_drop` when a message is sent,
    :meth:`latency` to add to its delay, and :meth:`blocks` again when it
    arrives (so a partition installed while a message is in flight cuts
    it off too). Nodes no rule names are unaffected, so admin traffic
    passes; with no rules the policy allows everything and draws no
    random numbers.
    """

    def __init__(self, seed: int | None = None, *, rng: Any = None):
        #: loss draws: anything with ``random()`` (the simulator passes a
        #: fork of its seeded RNG tree; a live replica seeds one).
        self.rng = rng if rng is not None else random.Random(seed)
        self._rules: dict[str, FailureAction] = {}

    # -- rule management ----------------------------------------------------

    def apply(self, action: FailureAction) -> bool:
        """Install (or heal) the rule ``action`` names; False for an
        action on a process (crash, restart), which no link rule models."""
        if isinstance(action, HealAt):
            self._rules.pop(action.name, None)
        elif isinstance(action, (PartitionAt, DropLinkAt, DelayLinkAt, LoseLinkAt)):
            self._rules[action.name] = action
        else:
            return False
        return True

    def partition(self, name: str, side_a, side_b) -> None:
        self.apply(PartitionAt(
            0.0, name, tuple(NodeId(str(n)) for n in side_a),
            tuple(NodeId(str(n)) for n in side_b),
        ))

    def drop(self, name: str, src: str, dst: str) -> None:
        self.apply(DropLinkAt(0.0, name, NodeId(src), NodeId(dst)))

    def delay(self, name: str, src: str, dst: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative link delay {seconds}")
        self.apply(DelayLinkAt(0.0, name, NodeId(src), NodeId(dst), seconds))

    def lose(self, name: str, src: str, dst: str, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate {rate} outside [0, 1]")
        self.apply(LoseLinkAt(0.0, name, NodeId(src), NodeId(dst), rate))

    def heal(self, name: str) -> None:
        """Remove the named rule; unknown names no-op."""
        self._rules.pop(name, None)

    def heal_all(self) -> None:
        self._rules.clear()

    def active(self) -> list[str]:
        """Names of every installed rule (diagnostics)."""
        return sorted(self._rules)

    # -- queries (every message's path) -------------------------------------

    def _links(self, kind: type, src: NodeId, dst: NodeId) -> list:
        """The installed ``kind`` rules whose one-way link is src -> dst."""
        return [
            rule for rule in self._rules.values()
            if isinstance(rule, kind)
            and rule.src in (ANY_NODE, src) and rule.dst in (ANY_NODE, dst)
        ]

    def blocks(self, src: NodeId, dst: NodeId) -> bool:
        """Deterministically blocked? (partitions are two-way, drops one-way)"""
        if not self._rules:
            return False
        for rule in self._rules.values():
            if isinstance(rule, PartitionAt) and (
                (src in rule.side_a and dst in rule.side_b)
                or (src in rule.side_b and dst in rule.side_a)
            ):
                return True
        return bool(self._links(DropLinkAt, src, dst))

    def should_drop(self, src: NodeId, dst: NodeId) -> bool:
        """Blocked or probabilistically lost (consults the seeded RNG)."""
        if not self._rules:
            return False
        return self.blocks(src, dst) or any(
            self.rng.random() < rule.rate
            for rule in self._links(LoseLinkAt, src, dst)
        )

    def latency(self, src: NodeId, dst: NodeId) -> float:
        """Injected one-way delay in seconds (sums overlapping rules)."""
        if not self._rules:
            return 0.0
        return sum(rule.seconds for rule in self._links(DelayLinkAt, src, dst))
