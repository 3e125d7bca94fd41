"""Process abstraction: a node in the simulated distributed system.

A :class:`Process` is an event-driven actor. Subclasses implement
``on_message`` and use ``send`` / ``set_timer`` to drive protocols. The
lifecycle follows the fail-stop / crash-recovery model:

* ``crash()`` stops the process: in-flight messages to it are dropped at
  delivery time, its pending timers are cancelled, and its *volatile* state
  is considered lost.
* ``restart()`` (optional per experiment) revives the process. The
  ``stable`` dictionary survives a restart — it models the write-ahead /
  stable storage that consensus protocols require for safety — while
  everything re-initialised in ``on_restart`` is volatile.

Processes are registered with their runtime, which wires them to the
network and the trace log. A process is written against the structural
:class:`repro.core.runtime.Runtime` surface only, so the same subclass runs
unmodified under the discrete-event :class:`repro.sim.runner.Simulator`
*and* the wall-clock :class:`repro.net.runtime.LiveRuntime` (real TCP).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.sim.events import Timer
from repro.sim.network import Message
from repro.types import NodeId, Time

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import Runtime


class Process:
    """Base class for hosted nodes (replicas, clients, services)."""

    def __init__(self, sim: "Runtime", node: NodeId):
        self.sim = sim
        self.node = node
        self.crashed = False
        #: survives restart; protocols put their "disk" state here.
        self.stable: dict[str, Any] = {}
        #: opt-in CPU model: seconds of service time consumed per delivered
        #: message. 0 (default) = infinitely fast nodes. When positive,
        #: messages are handled serially and queueing delay emerges under
        #: load — the regime where batching pays in throughput, not just
        #: message counts.
        self.processing_delay: float = 0.0
        self._busy_until: Time = 0.0
        self.messages_processed = 0
        self._timers: list[Timer] = []
        #: processes crashed and restarted with this one (an intent driver).
        self.companions: list[Process] = []
        sim.register_process(self)

    # -- clock & messaging ----------------------------------------------------

    @property
    def runtime(self) -> "Runtime":
        """The hosting runtime (``sim`` kept as the historical attribute name)."""
        return self.sim

    @property
    def now(self) -> Time:
        return self.sim.now

    def send(self, dest: NodeId, payload: Any, size: int | None = None) -> None:
        """Send a payload to ``dest``; silently dropped if this node is down.

        ``size=None`` (the default) lets the network estimate the payload's
        wire size with the shared codec; pass an explicit size only where
        the experiment models synthetic payload bytes.
        """
        if self.crashed:
            return
        self.sim.network.send(self.node, dest, payload, size=size)

    def broadcast(self, dests, payload: Any, size: int | None = None) -> None:
        """Send the same payload to every node in ``dests`` except ourselves."""
        for dest in dests:
            if dest != self.node:
                self.send(dest, payload, size=size)

    def send_self(self, dest_and_others, payload: Any, size: int | None = None) -> None:
        """Send to every node in the group *including* ourselves (loopback)."""
        for dest in dest_and_others:
            if dest == self.node:
                # Loopback skips the network but still goes through the event
                # queue so handlers never re-enter synchronously.
                self.sim.schedule(0.0, lambda p=payload: self._deliver_local(p))
            else:
                self.send(dest, payload, size=size)

    def _deliver_local(self, payload: Any) -> None:
        if not self.crashed:
            self.on_message(payload, self.node)

    # -- timers ----------------------------------------------------------------

    def set_timer(self, delay: float, action: Callable[[], None], label: str = "") -> Timer:
        """Arm a one-shot timer; it will not fire if the node crashes first."""

        def guarded() -> None:
            if not self.crashed:
                action()

        event = self.sim.schedule_event(delay, guarded, label=label or f"timer@{self.node}")
        timer = Timer(event)
        self._timers.append(timer)
        if len(self._timers) > 64:
            self._timers = [t for t in self._timers if t.active]
        return timer

    # -- lifecycle ---------------------------------------------------------------

    def crash(self) -> None:
        if self.crashed:
            return
        self.crashed = True
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self.sim.trace.emit(self.now, str(self.node), "crash")
        self.on_crash()
        for companion in self.companions:
            companion.crash()

    def restart(self) -> None:
        if not self.crashed:
            return
        self.crashed = False
        self.sim.trace.emit(self.now, str(self.node), "restart")
        self.on_restart()
        for companion in self.companions:
            companion.restart()

    # -- hooks (subclasses override) ----------------------------------------------

    def on_message(self, payload: Any, sender: NodeId) -> None:
        """Handle a delivered payload. Default: ignore."""

    def on_start(self) -> None:
        """Called once when the simulation starts running."""

    def on_crash(self) -> None:
        """Called after the process transitions to crashed."""

    def on_restart(self) -> None:
        """Called after a restart; rebuild volatile state from ``self.stable``."""

    # -- plumbing -------------------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Network delivery entry point (crashed nodes drop messages)."""
        if self.crashed:
            return
        if self.processing_delay <= 0.0:
            self.on_message(message.payload, message.sender)
            return
        # Serial CPU: each message occupies the node for processing_delay;
        # arrivals during a busy period queue behind it.
        start = max(self.now, self._busy_until)
        self._busy_until = start + self.processing_delay
        self.sim.at(
            self._busy_until,
            lambda: self._process_queued(message),
            label=f"cpu:{self.node}",
        )

    def _process_queued(self, message: Message) -> None:
        if self.crashed:
            return
        self.messages_processed += 1
        self.on_message(message.payload, message.sender)

    def trace(self, category: str, **detail: Any) -> None:
        self.sim.trace.emit(self.now, str(self.node), category, **detail)
