"""The simulator: virtual clock, event loop, process registry.

One :class:`Simulator` owns one run. Typical shape::

    sim = Simulator(seed=7)
    ... create Process subclasses bound to sim ...
    sim.run(until=10.0)

The loop pops events in ``(time, seq)`` order, advances the clock, and
invokes callbacks. There is no concurrency anywhere: determinism comes
from the total event order plus the seeded RNG tree.

:class:`Simulator` is one of two implementations of the structural
:class:`repro.core.runtime.Runtime` protocol (the other is the wall-clock
:class:`repro.net.runtime.LiveRuntime`): any :class:`repro.sim.node.Process`
runs unmodified on either backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import SimulationError
from repro.metrics.registry import MetricsRegistry
from repro.sim.events import Event, EventQueue
from repro.sim.network import LatencyModel, Network
from repro.sim.rng import SeededRng
from repro.sim.trace import TraceLog
from repro.types import NodeId, Time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.node import Process


class Simulator:
    """Discrete-event simulation kernel."""

    def __init__(
        self,
        seed: int = 42,
        latency: LatencyModel | None = None,
        trace_enabled: bool = True,
    ):
        self.rng = SeededRng(seed)
        self.now: Time = 0.0
        self.events = EventQueue()
        self.trace = TraceLog(enabled=trace_enabled)
        self.network = Network(self, latency=latency)
        # Cluster-wide registry: every simulated replica shares it (the sim
        # is one process), so counters aggregate across the whole cluster
        # and reconfiguration spans merge first-phase-wins across replicas.
        self.metrics = MetricsRegistry()
        self._processes: dict[NodeId, "Process"] = {}
        self._started = False
        self.events_executed = 0

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.events.schedule(self.now + delay, action, label=label)

    # Alias used by Process.set_timer to distinguish timers in traces.
    schedule_event = schedule

    def at(self, time: Time, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at absolute simulated ``time``."""
        self.events.validate_schedule_time(self.now, time)
        return self.events.schedule(time, action, label=label)

    # -- process registry --------------------------------------------------------

    def register_process(self, process: "Process") -> None:
        if process.node in self._processes:
            raise SimulationError(f"process {process.node!r} already registered")
        self._processes[process.node] = process
        self.network.register(process.node, process.deliver)
        if self._started:
            # Late-joining processes (e.g., replacement replicas) start
            # immediately via the event queue to preserve determinism.
            self.schedule(0.0, process.on_start, label=f"start:{process.node}")

    def remove_process(self, node: NodeId) -> None:
        self._processes.pop(node, None)
        self.network.unregister(node)

    def process(self, node: NodeId) -> "Process | None":
        return self._processes.get(node)

    def processes(self) -> list["Process"]:
        return list(self._processes.values())

    # -- running -------------------------------------------------------------------

    def _start_all(self) -> None:
        if self._started:
            return
        self._started = True
        for process in list(self._processes.values()):
            process.on_start()

    def step(self) -> bool:
        """Execute the next event. Returns False when the queue is empty."""
        self._start_all()
        event = self.events.pop_next()
        if event is None:
            return False
        if event.time < self.now:
            raise SimulationError("event queue produced an event in the past")
        self.now = event.time
        self.events_executed += 1
        event.action()
        # Mark executed so Timer.active reflects "still pending".
        event.cancelled = True
        return True

    def run(self, until: Time | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or the budget ends."""
        self._start_all()
        budget = max_events
        while True:
            if budget is not None and budget <= 0:
                return
            next_time = self.events.peek_time()
            if next_time is None:
                return
            if until is not None and next_time > until:
                self.now = until
                return
            self.step()
            if budget is not None:
                budget -= 1

    def run_until(self, predicate: Callable[[], bool], timeout: Time) -> bool:
        """Run until ``predicate()`` holds; returns whether it did in time.

        The predicate is evaluated after every executed event, which keeps
        the check exact (no polling granularity).
        """
        deadline = self.now + timeout
        self._start_all()
        if predicate():
            return True
        while True:
            next_time = self.events.peek_time()
            if next_time is None or next_time > deadline:
                self.now = deadline
                return predicate()
            self.step()
            if predicate():
                return True
