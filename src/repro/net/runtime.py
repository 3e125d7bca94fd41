"""Wall-clock :class:`repro.core.runtime.Runtime` over an asyncio loop.

Where :class:`repro.sim.runner.Simulator` advances a virtual clock through
an event queue, :class:`LiveRuntime` reads the event loop's monotonic clock
and turns ``schedule``/``at`` into ``loop.call_later`` callbacks. Protocol
code cannot tell the difference: a :class:`repro.sim.node.Process` (and
therefore the whole reconfigurable replica stack) runs unmodified.

Determinism obviously does not survive the move to real time and real
sockets — that is the point of the simulator — but the seeded RNG tree is
kept so that per-node timer jitter is still reproducible in isolation.
"""

from __future__ import annotations

import asyncio
import random
import signal
import sys
from typing import Any, Callable

from repro.errors import SimulationError
from repro.metrics.registry import MetricsRegistry
from repro.net.transport import TcpTransport
from repro.sim.rng import SeededRng
from repro.sim.trace import TraceLog, TraceRecord
from repro.types import NodeId, Time


class LiveCall:
    """Handle to one ``call_later`` callback (``ScheduledCall`` protocol).

    Mirrors :class:`repro.sim.events.Event` closely enough that
    :class:`repro.sim.events.Timer` can wrap it: ``time``, ``cancelled``,
    ``cancel()``. A fired call reads as cancelled, matching the simulator's
    "executed events are inactive" convention.
    """

    __slots__ = ("time", "cancelled", "label", "_handle")

    def __init__(self, time: Time, label: str = ""):
        self.time = time
        self.cancelled = False
        self.label = label
        self._handle: asyncio.TimerHandle | None = None

    def cancel(self) -> None:
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()


class EchoTraceLog(TraceLog):
    """Trace log that also streams records to stderr (``serve --verbose``)."""

    def emit(self, time: Time, source: str, category: str, **detail: Any) -> None:
        super().emit(time, source, category, **detail)
        print(TraceRecord(time, source, category, detail), file=sys.stderr, flush=True)


class LiveRuntime:
    """Run registered processes on the wall clock over a TCP transport."""

    def __init__(
        self,
        transport: TcpTransport,
        seed: int = 42,
        echo_trace: bool = False,
    ):
        self.rng = SeededRng(seed)
        self.network = transport
        self.trace = EchoTraceLog() if echo_trace else TraceLog()
        self._loop = asyncio.new_event_loop()
        self._t0 = self._loop.time()
        self._processes: dict[NodeId, Any] = {}
        self._started = False
        self.events_executed = 0
        # One registry per replica process: the transport, every consensus
        # engine and the reconfigurable replica all record into it, and the
        # #metrics endpoint snapshots it.
        self.metrics = MetricsRegistry()
        transport.bind_metrics(self.metrics)
        transport.bind_clock(lambda: self.now)
        # Reconnect jitter and link-loss draws come from seed-derived RNGs,
        # so a seeded chaos run reproduces its transport-level timing.
        transport.bind_rng(random.Random(seed))
        # Fail-stop: a dispatch window whose fsync failed ends the process.
        transport.bind_halt(self.stop)

    # -- clock & scheduling (Runtime protocol) ------------------------------

    @property
    def now(self) -> Time:
        """Seconds of wall-clock time since this runtime was created."""
        return self._loop.time() - self._t0

    def schedule(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> LiveCall:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        call = LiveCall(self.now + delay, label=label)

        def fire() -> None:
            if call.cancelled:
                return
            self.events_executed += 1
            try:
                # A timer is a tick like an inbound chunk: the slots it
                # flushes share one fsync, and replies wait for it.
                with self.network.dispatch_window():
                    action()
            finally:
                call.cancelled = True  # fired calls read as inactive

        call._handle = self._loop.call_later(delay, fire)
        return call

    # Alias used by Process.set_timer (mirrors Simulator).
    schedule_event = schedule

    def at(self, time: Time, action: Callable[[], None], label: str = "") -> LiveCall:
        return self.schedule(max(0.0, time - self.now), action, label=label)

    # -- process registry ---------------------------------------------------

    def register_process(self, process: Any) -> None:
        if process.node in self._processes:
            raise SimulationError(f"process {process.node!r} already registered")
        self._processes[process.node] = process
        self.network.register(process.node, process.deliver)
        if self._started:
            self._loop.call_soon(process.on_start)

    def remove_process(self, node: NodeId) -> None:
        self._processes.pop(node, None)
        self.network.unregister(node)

    def process(self, node: NodeId) -> Any | None:
        return self._processes.get(node)

    def processes(self) -> list[Any]:
        return list(self._processes.values())

    # -- running ------------------------------------------------------------

    async def start(self, host: str, port: int) -> None:
        """Bind the TCP server and start every registered process."""
        await self.network.start(host, port)
        self._started = True
        for process in list(self._processes.values()):
            process.on_start()

    def run(self, host: str, port: int, handle_signals: bool = True) -> None:
        """Serve until :meth:`stop` (or SIGINT/SIGTERM). Blocks.

        Raises the transport's failure if serving ended because a
        dispatch window's groups failed to close (an fsync error).
        """
        asyncio.set_event_loop(self._loop)
        if handle_signals:
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._loop.add_signal_handler(sig, self.stop)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # platforms/threads without signal support
        self._loop.run_until_complete(self.start(host, port))
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.network.close())
            self._loop.close()
        if self.network.failure is not None:
            raise self.network.failure

    def stop(self) -> None:
        """Request a clean shutdown (thread-safe)."""
        self._loop.call_soon_threadsafe(self._loop.stop)
