"""Warm standbys: non-voting observers that track the virtual log.

Observers (learners) warm up *before* being added to the membership: a
sponsor member sends them a bootstrap (boundary snapshot + effective
entries so far) and then every subsequent effective entry. A later
reconfiguration that promotes the observer finds its state already local,
so the hand-off costs no bulk transfer — the warm-join ablation
(experiment F5).
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.types import Configuration, EpochId, NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.reconfig import ReconfigurableReplica

#: how often a silent observer re-subscribes (sponsor failover).
OBSERVER_RESUBSCRIBE_INTERVAL = 0.5


@dataclass(frozen=True, slots=True)
class ObserverSubscribe:
    """A non-voting standby asks a member to stream the virtual log to it."""


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


#: what :meth:`WarmStandby.on_message` handles (the replica dispatches on it).
OBSERVER_MESSAGES = (ObserverSubscribe, ObserverBootstrap, ObserverUpdate)


class WarmStandby:
    """Both ends of the observer protocol for one replica.

    As a sponsor it streams every effective entry to the observers that
    subscribed. As an observer (``targets`` names the sponsors) it
    subscribes, re-subscribes elsewhere when its sponsor goes silent, and
    feeds what it hears into the replica's chain in slot order through
    the replica's ``open_epoch``, ``land_boundary``, ``append_effective``
    and ``advance_execution``.
    """

    def __init__(self, replica: "ReconfigurableReplica", targets: list[NodeId]):
        self.replica = replica
        #: sponsors to subscribe to when running as a warm standby.
        self.targets = targets
        self._next_target = 0
        self.bootstrapped = False
        self._last_observed_at = -1.0
        #: out-of-order observed entries: epoch -> slot -> payload.
        self._stash: dict[EpochId, dict[int, Any]] = {}
        #: nodes this replica streams the virtual log to (we are a sponsor).
        self.observers: set[NodeId] = set()

    def subscribed(self) -> bool:
        """Whether this replica is (or was) a standby with a sponsor stream."""
        return bool(self.targets)

    def start(self) -> None:
        if self.targets:
            self._subscribe_tick()

    def publish(self, config: Configuration, slot: int, payload: Any) -> None:
        """Sponsor: stream one new effective entry to every observer."""
        if self.observers:
            update = ObserverUpdate(config, slot, payload)
            size = 64 + int(getattr(payload, "size", 32))
            for observer in self.observers:
                self.replica.send(observer, update, size=size)

    def on_message(self, payload: Any, sender: NodeId) -> None:
        if isinstance(payload, ObserverSubscribe):
            self._bootstrap(sender)
        elif isinstance(payload, ObserverBootstrap):
            self._bootstrapped_by(payload)
        else:
            self._last_observed_at = self.replica.now
            self._observe(payload.config, payload.slot, payload.payload)

    def _subscribe_tick(self) -> None:
        """Subscribe (and periodically re-subscribe) to a live sponsor."""
        replica = self.replica
        if replica.crashed:
            return
        # Once promoted to a member, stop behaving like an observer.
        if any(rt.engine is not None for rt in replica.chain.values()):
            return
        silent_for = replica.now - self._last_observed_at
        if not self.bootstrapped or silent_for >= OBSERVER_RESUBSCRIBE_INTERVAL:
            target = self.targets[self._next_target % len(self.targets)]
            self._next_target += 1
            replica.send(target, ObserverSubscribe())
        replica.set_timer(
            OBSERVER_RESUBSCRIBE_INTERVAL, self._subscribe_tick, label="observer-subscribe"
        )

    def _bootstrap(self, observer: NodeId) -> None:
        """Sponsor: send ``observer`` our boundary and entries, then stream."""
        replica = self.replica
        chain, start = replica.chain, replica.exec_epoch
        runtime = chain.get(start)
        if runtime is None or not runtime.start_state_ready:
            return  # not bootstrappable yet; the observer will retry
        if not runtime.start_state_is_boundary:
            # Recovered from a mid-epoch checkpoint: our start_state is
            # not the epoch boundary, so we cannot bootstrap an observer
            # honestly. We can again at the next epoch boundary; until
            # then the observer's re-subscribe tries another sponsor.
            return
        self.observers.add(observer)
        epochs = tuple(
            (chain[epoch].config, tuple(chain[epoch].effective), chain[epoch].cut_slot)
            for epoch in sorted(chain)
            if epoch >= start
        )
        state = replica.state
        boundary_bytes = state.snapshot_bytes() if state is not None else 64
        entry_bytes = sum(
            int(getattr(payload, "size", 32))
            for _, entries, _ in epochs
            for payload in entries
        )
        replica.send(
            observer,
            ObserverBootstrap(start, deepcopy(runtime.start_state), boundary_bytes, epochs),
            size=boundary_bytes + entry_bytes + 128,
        )
        replica.trace("observer-bootstrap-sent", to=str(observer), epochs=len(epochs))

    def _bootstrapped_by(self, msg: ObserverBootstrap) -> None:
        replica = self.replica
        self._last_observed_at = replica.now
        chain = replica.chain
        # A re-bootstrap that landed at an epoch we no longer track from:
        # only accept bootstraps that extend what we have.
        if msg.start_epoch not in chain and chain and msg.start_epoch < min(chain):
            return
        for config, entries, _cut in msg.epochs:
            replica.open_epoch(config, prev_members=None)
            if config.epoch == msg.start_epoch:
                replica.land_boundary(config.epoch, msg.boundary)
            for slot, payload in enumerate(entries):
                self._observe(config, slot, payload)
        self.bootstrapped = True
        replica.trace("observer-bootstrapped", start=msg.start_epoch)
        replica.advance_execution()

    def _observe(self, config: Configuration, slot: int, payload: Any) -> None:
        replica = self.replica
        runtime = replica.chain.get(config.epoch)
        if runtime is None:
            replica.open_epoch(config, prev_members=None)
            runtime = replica.chain[config.epoch]
        if runtime.engine is not None:
            return  # we are a member here: the engine is authoritative
        if runtime.sealed and slot > runtime.cut_slot:
            return  # orphan; observers never re-propose
        if slot < len(runtime.effective):
            return  # duplicate
        if slot > len(runtime.effective):
            self._stash.setdefault(config.epoch, {})[slot] = payload
            return
        replica.append_effective(runtime, slot, payload)
        # Drain any stashed successors that are now in order.
        stash = self._stash.get(config.epoch)
        while stash:
            next_slot = len(runtime.effective)
            if next_slot not in stash:
                break
            replica.append_effective(runtime, next_slot, stash.pop(next_slot))
        replica.advance_execution()
