"""The execution-environment seam between protocol logic and its host.

Every protocol object in this library — replicas, engines, clients — is
written against a small structural surface: a clock (``now``), one-shot
callbacks (``schedule`` / ``at``), a message port (``network.send`` /
``network.register``), a forkable RNG and a trace sink. Historically that
surface was provided only by :class:`repro.sim.runner.Simulator`; the
:class:`Runtime` protocol below names it explicitly so the *same* replica
implementation can run on two backends:

* the discrete-event simulator (:mod:`repro.sim`) — virtual time, a single
  event queue, deterministic delivery, used by every experiment and test;
* the live networked runtime (:mod:`repro.net`) — wall-clock time over an
  asyncio event loop, real length-prefixed TCP frames between processes.

The protocols are intentionally structural (:pep:`544`): ``Simulator``
satisfies them without importing this module, and anything that drives a
:class:`repro.sim.node.Process` only needs these members, nothing more.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.types import NodeId, Time


@runtime_checkable
class ScheduledCall(Protocol):
    """Handle to one scheduled callback (cancelable, inspectable).

    ``repro.sim.events.Event`` and ``repro.net.runtime.LiveCall`` both
    satisfy this; :class:`repro.sim.events.Timer` wraps either.
    """

    time: Time
    cancelled: bool

    def cancel(self) -> None: ...


@runtime_checkable
class MessagePort(Protocol):
    """The sending/registration surface shared by sim and live networks.

    ``size=None`` asks the port to estimate the payload's wire size itself
    (the simulated network uses the shared codec estimator; the live
    transport measures the encoded frame). ``send_to`` reaches a node of
    another group at its address: live, names repeat across groups.
    """

    def send(
        self, sender: NodeId, dest: NodeId, payload: Any, size: int | None = None
    ) -> None: ...

    def send_to(
        self, address: Any, sender: NodeId, dest: NodeId, payload: Any,
        size: int | None = None,
    ) -> None: ...

    def register(self, node: NodeId, deliver: Callable[..., None]) -> None: ...

    def unregister(self, node: NodeId) -> None: ...

    def knows(self, node: NodeId) -> bool: ...


@runtime_checkable
class TraceSink(Protocol):
    """Structured event log (``repro.sim.trace.TraceLog`` satisfies this)."""

    def emit(self, time: Time, source: str, category: str, **detail: Any) -> None: ...


@runtime_checkable
class Rng(Protocol):
    """Forkable random stream (``repro.sim.rng.SeededRng`` satisfies this)."""

    def fork(self, name: str) -> "Rng": ...

    def uniform(self, low: float, high: float) -> float: ...

    def random(self) -> float: ...


@runtime_checkable
class Runtime(Protocol):
    """What a :class:`repro.sim.node.Process` requires of its host.

    Implementations:

    * :class:`repro.sim.runner.Simulator` — virtual clock, event queue.
    * :class:`repro.net.runtime.LiveRuntime` — wall clock, asyncio loop,
      TCP transport.
    """

    rng: Rng
    network: MessagePort
    trace: TraceSink

    @property
    def now(self) -> Time: ...

    def schedule(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> ScheduledCall: ...

    def schedule_event(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> ScheduledCall: ...

    def at(
        self, time: Time, action: Callable[[], None], label: str = ""
    ) -> ScheduledCall: ...

    def register_process(self, process: Any) -> None: ...

    def remove_process(self, node: NodeId) -> None: ...
