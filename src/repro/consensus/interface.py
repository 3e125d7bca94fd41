"""The static SMR interface: the composition boundary of the paper.

The reconfigurable layer built on top of this package treats a consensus
engine as a black box with exactly this contract:

* ``propose(payload)`` — best-effort submission; the engine may decide the
  payload once, more than once (duplicate slots after retries), or never
  (callers retry at a higher layer).
* a ``Decision`` stream delivered **in slot order with no gaps** via the
  ``on_decide`` callback supplied at construction;
* ``stop()`` — cease participating (used after an epoch is sealed and its
  state handed off);
* ``leads()`` — whether this member currently leads the instance (the
  one member that orders); never after ``stop()``.

A payload that must own its slot says so itself: a class attribute
``batchable = False`` keeps an engine from packing it into a
:class:`Batch`. Engines never import a payload type to find out.

Engines are *embedded* objects, not processes: a host
:class:`repro.sim.node.Process` may run several engine instances (one per
epoch), multiplexing them over one network endpoint by wrapping engine
messages in :class:`InstanceMessage`. :class:`Transport` is the thin
adapter engines use to reach the host's network, timers, RNG and trace.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, ClassVar

from repro.sim.events import Timer
from repro.sim.node import Process
from repro.types import Decision, Membership, NodeId, Time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.registry import MetricsRegistry
    from repro.sim.rng import SeededRng


@dataclass(frozen=True, slots=True)
class InstanceMessage:
    """Envelope multiplexing engine messages over a shared endpoint."""

    instance: str
    inner: Any


@dataclass(frozen=True, slots=True)
class ExecutedInstanceMessage(InstanceMessage):
    """The same envelope, from a host that has executed the instance's log
    fully (so nobody need tell it the instance is closed); engines never
    see the difference."""


@dataclass(frozen=True, slots=True)
class Noop:
    """Filler value used by leaders to close log gaps. Carries no effect."""

    batchable: ClassVar[bool] = False

    reason: str = "gap"


@dataclass(frozen=True, slots=True)
class Batch:
    """Several client commands decided together in one slot.

    Produced by engines with leader-side batching enabled: one Phase-2
    round trip amortises across all members of the batch. The layers above
    unpack batches — each inner command gets its own virtual-log position
    and reply — so batching is invisible to clients and to correctness.
    Reconfiguration commands are never batched (the effective-log cut is
    per slot, and a reconfiguration must own its slot).
    """

    payloads: tuple

    @property
    def size(self) -> int:
        return 16 + sum(int(getattr(p, "size", 32)) for p in self.payloads)

    def __len__(self) -> int:
        return len(self.payloads)


def proposal_key(payload: Any) -> Any | None:
    """Deduplication key of a proposable payload.

    Engines use this to avoid proposing the same logical payload into two
    slots when clients or hosts retry. Payloads without identity (``Noop``)
    return ``None`` and are never deduplicated. A command's key is its own
    :class:`~repro.types.CommandId` (no wrapper to allocate per lookup or
    to keep per command); reconfiguration and raw keys are tuples, and a
    tuple never equals a ``CommandId``.
    """
    if isinstance(payload, Noop):
        return None
    cid = getattr(payload, "cid", None)
    if cid is not None:
        return cid
    rid = getattr(payload, "rid", None)
    if rid is not None:
        return ("reconfig", rid)
    return ("raw", payload) if isinstance(payload, (str, int, bytes, tuple)) else None


class Transport:
    """Engine-side view of its host process and simulator."""

    def __init__(self, host: "Process", instance_id: str):
        self._host = host
        self.instance_id = instance_id
        self.node: NodeId = host.node
        self.rng: "SeededRng" = host.sim.rng.fork(f"{host.node}/{instance_id}")

    @property
    def now(self) -> Time:
        return self._host.now

    @property
    def metrics(self) -> "MetricsRegistry":
        """The host runtime's metrics registry (shared by every engine)."""
        from repro.metrics.registry import metrics_of

        return metrics_of(self._host.sim)

    @property
    def durability(self):
        """This instance's durability handle (no-op on storage-less hosts).

        Hosts opt in by exposing a ``storage`` attribute holding a
        :class:`repro.storage.ReplicaStore`; everyone else gets the null
        handle and keeps the pre-durability in-memory behaviour.
        """
        from repro.storage.store import NULL_DURABILITY

        store = getattr(self._host, "storage", None)
        if store is None:
            return NULL_DURABILITY
        return store.instance(self.instance_id)

    def send(self, dest: NodeId, inner: Any, size: int | None = None) -> None:
        self._host.send(dest, InstanceMessage(self.instance_id, inner), size=size)

    def broadcast(self, dests, inner: Any, size: int | None = None) -> None:
        """Send ``inner`` to every node of ``dests`` but this one.

        One envelope object serves the whole fan-out, which is what lets
        the live transport encode an Accept or Decide once, not per peer.
        """
        self._host.broadcast(dests, InstanceMessage(self.instance_id, inner), size=size)

    def set_timer(self, delay: float, action: Callable[[], None], label: str = "") -> Timer:
        return self._host.set_timer(delay, action, label=label or f"{self.instance_id}-timer")

    def trace(self, category: str, **detail: Any) -> None:
        self._host.trace(category, instance=self.instance_id, **detail)

    def mark_executed(self) -> None:
        """The host has executed the instance's log fully: the engine's
        further messages say so. The send path of an instance still being
        executed stays as it is."""
        self.__class__ = _ExecutedTransport


class _ExecutedTransport(Transport):
    """A :class:`Transport` after :meth:`~Transport.mark_executed`."""

    def send(self, dest: NodeId, inner: Any, size: int | None = None) -> None:
        self._host.send(dest, ExecutedInstanceMessage(self.instance_id, inner), size=size)

    def broadcast(self, dests, inner: Any, size: int | None = None) -> None:
        self._host.broadcast(dests, ExecutedInstanceMessage(self.instance_id, inner), size=size)


# Factory signature every engine implementation provides (see
# MultiPaxosEngine.factory; SequencerEngine, which has no parameters, is
# its own factory): given a transport, the fixed membership and a
# decision callback, build a ready engine.
EngineFactory = Callable[[Transport, Membership, Callable[[Decision], None]], "SmrEngine"]


class SmrEngine(abc.ABC):
    """Abstract non-reconfigurable SMR engine (one member's slice of it)."""

    def __init__(
        self,
        transport: Transport,
        membership: Membership,
        on_decide: Callable[[Decision], None],
    ):
        self.transport = transport
        self.membership = membership
        self.on_decide = on_decide
        self.stopped = False

    @abc.abstractmethod
    def start(self) -> None:
        """Begin participating (arm timers, kick off election, ...)."""

    @abc.abstractmethod
    def propose(self, payload: Any) -> None:
        """Best-effort submission of ``payload`` for some log slot."""

    @abc.abstractmethod
    def on_message(self, inner: Any, sender: NodeId) -> None:
        """Handle an engine protocol message (already unwrapped)."""

    def stop(self) -> None:
        """Cease participation; safe to call more than once."""
        self.stopped = True

    @abc.abstractmethod
    def leads(self) -> bool:
        """True while this member leads the instance; False once stopped."""

    def restart(self) -> None:
        """Undo :meth:`stop` after the host's crash, before :meth:`start`:
        the state the engine models as stable storage survived, and an
        engine with a leader comes back as a follower."""
        self.stopped = False

    @property
    @abc.abstractmethod
    def next_undelivered_slot(self) -> int:
        """Watermark: first slot not yet delivered to ``on_decide``."""

    def has_read_lease(self, now: Time) -> bool:
        """True if this member may serve linearizable local reads *now*.

        A lease means: no other member can commit a write this member has
        not seen, for the lease's remaining validity. Engines without a
        lease mechanism return False and reads take the log path.
        """
        return False

    def read_freshness_age(self, now: Time) -> float:
        """Seconds since this member last heard from an active leader.

        The bounded-staleness read mode uses this to decide whether a
        local (non-linearizable) read is still inside the configured
        staleness bound. Leaders are fresh by definition (0.0); engines
        without a leader concept return +inf and follower reads fall
        back to the ordered path.
        """
        return float("inf")


class StaticSmrHost(Process):
    """A process hosting exactly one static SMR engine.

    This is the standalone deployment used by the raw-building-block
    benchmarks (experiment T1) and the engine unit tests. The
    reconfigurable replica of the layer above plays the same hosting
    role for many engines at once.
    """

    INSTANCE_ID = "static"

    def __init__(self, sim, node: NodeId, membership: Membership, engine_factory: EngineFactory):
        super().__init__(sim, node)
        self.decisions: list[Decision] = []
        self._on_external_decide: Callable[[Decision], None] | None = None
        transport = Transport(self, self.INSTANCE_ID)
        self.engine = engine_factory(transport, membership, self._handle_decide)

    def set_decision_callback(self, callback: Callable[[Decision], None]) -> None:
        self._on_external_decide = callback

    def _handle_decide(self, decision: Decision) -> None:
        self.decisions.append(decision)
        if self._on_external_decide is not None:
            self._on_external_decide(decision)

    def propose(self, payload: Any) -> None:
        self.engine.propose(payload)

    def on_start(self) -> None:
        self.engine.start()

    def on_message(self, payload: Any, sender: NodeId) -> None:
        if isinstance(payload, InstanceMessage) and payload.instance == self.INSTANCE_ID:
            if not self.engine.stopped:
                self.engine.on_message(payload.inner, sender)

    def on_crash(self) -> None:
        self.engine.stop()
