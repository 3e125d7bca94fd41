"""Asyncio TCP transport with the simulator network's sending surface.

:class:`TcpTransport` implements the :class:`repro.core.runtime.MessagePort`
protocol — the same ``send`` / ``register`` / ``unregister`` / ``knows``
surface as :class:`repro.sim.network.Network` — over real sockets:

* every process runs one TCP server; peers exchange length-prefixed
  frames (see :mod:`repro.net.codec`, the only module that knows the
  wire format); a frame the codec rejects is dropped as a poison frame
  and the stream carries on;
* **outbound** traffic to each configured peer goes through a dedicated
  :class:`PeerConnection` with a bounded queue and its own writer task, so
  a slow or dead peer can never block the event loop or other peers —
  when the queue fills, the oldest frames are dropped (the protocols all
  tolerate loss and retry);
* the writer task **coalesces**: each wakeup drains the whole queue (up to
  :data:`COALESCE_MAX_BYTES`) into a single ``writer.write`` + ``drain``
  pair instead of one syscall round per frame, and never holds a frame
  back to wait for more;
* connections are (re)established lazily with exponential backoff plus
  jitter, so a restarting replica is re-adopted without thundering herds;
* the **inbound** reader consumes the byte stream in large chunks and
  parses every complete frame out of each chunk, so coalesced batches are
  decoded without per-frame read syscalls;
* inbound connections from nodes outside the address book (clients,
  admin tools) are remembered as reply routes: a send to such a node goes
  back over the connection it last spoke on, which is read on both ends;
  :meth:`TcpTransport.send_to` reaches another group's node by address.

Delivery semantics match the simulator's fail-stop network: unknown or
unreachable destinations drop messages silently, link faults come from
the same :class:`~repro.faults.LinkPolicy` the simulator consults (on
send, as added delay, and again on inbound dispatch), and per-run
statistics (:class:`repro.sim.network.NetworkStats`) count messages and
bytes by payload type.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import traceback
from typing import Any, Callable, ContextManager

from repro.faults import LinkPolicy
from repro.metrics.registry import MetricsRegistry
from repro.net import codec
from repro.sim.network import Message, NetworkStats
from repro.types import NodeId

#: (host, port) address of one peer process.
Address = tuple[str, int]

#: frames one peer's outbound queue holds before the oldest is shed.
QUEUE_LIMIT = 4096
#: reconnect backoff: first pause and cap (seconds; jittered x0.5-1.5).
RECONNECT_MIN = 0.05
RECONNECT_MAX = 2.0
#: most bytes one coalesced write+drain round carries.
COALESCE_MAX_BYTES = 256 * 1024
#: bytes asked of the socket per inbound read.
READ_CHUNK = 64 * 1024


class PeerConnection:
    """Outbound leg to one configured peer: queue + reconnect loop."""

    def __init__(
        self,
        transport: "TcpTransport",
        peer: NodeId,
        address: Address,
    ):
        self.transport = transport
        self.peer = peer
        self.address = address
        self.queue: asyncio.Queue[bytes] = asyncio.Queue(maxsize=QUEUE_LIMIT)
        self.task: asyncio.Task | None = None
        self.connected = False
        self.ever_connected = False
        self.dropped = 0
        #: frames handed to the socket / write+drain batches flushed —
        #: ``frames_sent / batches_sent`` is the realised coalescing factor.
        self.frames_sent = 0
        self.batches_sent = 0
        self._closing = False

    def enqueue(self, frame: bytes) -> None:
        """Queue one frame; sheds the oldest backlog instead of blocking."""
        while True:
            try:
                self.queue.put_nowait(frame)
                return
            except asyncio.QueueFull:
                try:
                    self.queue.get_nowait()
                    self.dropped += 1
                    self.transport.stats.messages_dropped += 1
                    self.transport._m_frames_dropped.inc()
                except asyncio.QueueEmpty:  # pragma: no cover - race window
                    pass

    def ensure_running(self) -> None:
        if self.task is None or self.task.done():
            self.task = asyncio.get_running_loop().create_task(
                self._run(), name=f"peer:{self.peer}"
            )

    async def _run(self) -> None:
        backoff = RECONNECT_MIN
        while not self._closing:
            writer = None
            replies = None
            batch: list[bytes] = []
            try:
                reader, writer = await asyncio.open_connection(*self.address)
                # Replies to an endpoint here the far end knows by no name.
                replies = asyncio.get_running_loop().create_task(
                    self.transport._serve_connection(reader, writer)
                )
                self.connected = True
                if self.ever_connected:
                    self.transport._m_reconnects.inc()
                self.ever_connected = True
                backoff = RECONNECT_MIN
                while not self._closing:
                    # Coalesce: take everything queued right now (bounded by
                    # COALESCE_MAX_BYTES) and flush it as one write+drain.
                    batch = [await self.queue.get()]
                    size = len(batch[0])
                    while size < COALESCE_MAX_BYTES:
                        try:
                            frame = self.queue.get_nowait()
                        except asyncio.QueueEmpty:
                            break
                        batch.append(frame)
                        size += len(frame)
                    writer.write(b"".join(batch) if len(batch) > 1 else batch[0])
                    await writer.drain()
                    self.frames_sent += len(batch)
                    self.batches_sent += 1
                    self.transport._m_frames_flushed.inc(len(batch))
                    self.transport._m_batches_flushed.inc()
                    self.transport._m_bytes_flushed.inc(size)
                    batch = []
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                pass
            finally:
                self.connected = False
                if replies is not None:
                    replies.cancel()
                if batch:
                    # Frames already popped from the queue die with the
                    # connection: account for them instead of losing them
                    # silently (delivery is not known, so count as dropped).
                    self.dropped += len(batch)
                    self.transport.stats.messages_dropped += len(batch)
                    self.transport._m_frames_dropped.inc(len(batch))
                if writer is not None:
                    writer.close()
            if self._closing:
                return
            # Exponential backoff with multiplicative jitter: restarting
            # peers are re-adopted quickly without synchronized stampedes.
            # The jitter comes from the transport's (seedable) RNG so a
            # seeded chaos run reproduces its reconnect timing.
            await asyncio.sleep(backoff * self.transport.rng.uniform(0.5, 1.5))
            backoff = min(backoff * 2.0, RECONNECT_MAX)

    def abort(self) -> None:
        """Fail-stop: discard every queued frame and stop the writer.

        Synchronous, so it runs before the writer task can be scheduled
        again; a batch the task popped earlier holds only frames of
        windows that closed, and the task's cancellation drops it too.
        """
        self._closing = True
        while not self.queue.empty():
            self.queue.get_nowait()
            self.dropped += 1
            self.transport.stats.messages_dropped += 1
            self.transport._m_frames_dropped.inc()
        if self.task is not None:
            self.task.cancel()

    async def close(self) -> None:
        self._closing = True
        if self.task is not None:
            self.task.cancel()
            try:
                await self.task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self.task = None


class TcpTransport:
    """Length-prefixed-frame message port over asyncio TCP."""

    def __init__(
        self,
        addresses: dict[NodeId, Address],
        *,
        link_policy: LinkPolicy | None = None,
    ):
        #: address book: every node this process may *initiate* a
        #: connection to (replicas; clients stay reply-routed).
        self.addresses = {NodeId(str(n)): a for n, a in addresses.items()}
        # Build the codec's tables now (protocol imports + builder codegen,
        # 21-25 ms in a `serve` process on a 2-cpu x86 box): left lazy, a
        # standby replica pays it inside the event loop on the first frame
        # it receives — the EpochAnnounce of its join.
        codec.wire_tables()
        #: chaos hooks; the permissive default short-circuits to "allow".
        self.policy = link_policy if link_policy is not None else LinkPolicy()
        #: timing randomness (reconnect jitter). :meth:`bind_rng` seeds
        #: it, which makes chaos runs reproducible; an unbound transport
        #: uses the module-level RNG.
        self.rng: random.Random | Any = random
        self.stats = NetworkStats()
        #: observability registry. A private default keeps standalone
        #: transports (tests, tools) instrumented; :meth:`bind_metrics`
        #: swaps in the runtime's shared registry before serving.
        self.metrics = MetricsRegistry()
        self._bind_instruments()
        self._endpoints: dict[NodeId, Callable[[Message], None]] = {}
        #: outbound legs by peer name, or by address (see :meth:`send_to`).
        self._peers: dict[Any, PeerConnection] = {}
        #: reply routes for unconfigured senders (clients/admin tools):
        #: node -> StreamWriter of the connection it last spoke on.
        self._reply_routes: dict[NodeId, asyncio.StreamWriter] = {}
        self._server: asyncio.base_events.Server | None = None
        #: the tasks reading connections (see :meth:`_serve_connection`).
        self._serving: set[asyncio.Task] = set()
        self._clock: Callable[[], float] = lambda: 0.0
        #: context-manager factories wrapped around each tick's dispatch
        #: (see :meth:`add_dispatch_group`).
        self._dispatch_groups: list[Callable[[], ContextManager[Any]]] = []
        #: reply-route frames produced by the tick being dispatched, per
        #: connection; None between ticks (see :meth:`dispatch_window`).
        self._corked: dict[asyncio.StreamWriter, list[bytes]] | None = None
        #: one-entry broadcast memo: (payload object, encoded bytes).
        self._encoded_payload: tuple[Any, bytes] | None = None
        #: the error a dispatch window's groups failed with; once set, no
        #: frame leaves this transport again (see :meth:`dispatch_window`).
        self.failure: Exception | None = None
        self._halt: Callable[[], None] = lambda: None

    def add_dispatch_group(self, factory: Callable[[], ContextManager[Any]]) -> None:
        """Wrap every tick (inbound chunk, timer callback) in ``factory()``.

        ``serve`` registers the replica store's group-commit window
        here: all WAL appends triggered while dispatching the frames of
        one network chunk, or by one timer, then share a single fsync,
        issued when the window closes. No byte leaves the process between
        a window's open and its fsync: peer writer tasks are woken, not
        run, during dispatch, and frames for reply routes are corked until
        the windows have closed (see :meth:`dispatch_window`). That
        ordering is what keeps durable-before-send intact per window.
        """
        self._dispatch_groups.append(factory)

    def bind_halt(self, halt: Callable[[], None]) -> None:
        """Runtime wiring: how to stop serving once a window fails."""
        self._halt = halt

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Runtime wiring: timestamps for delivered :class:`Message`\\ s."""
        self._clock = clock

    def bind_rng(self, rng: random.Random) -> None:
        """Runtime wiring: adopt a seeded RNG.

        :class:`repro.net.runtime.LiveRuntime` calls this with an RNG
        derived from its seed, so reconnect jitter is reproducible per
        seed without every call site having to thread one through.
        """
        self.rng = rng

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Runtime wiring: share the runtime's registry (same pattern as
        :meth:`bind_clock`). Counters accumulated on the private default
        registry before binding are not migrated — runtimes bind before
        serving, so nothing has counted yet."""
        self.metrics = registry
        self._bind_instruments()

    def _bind_instruments(self) -> None:
        """(Re)cache counter handles against the current registry."""
        metrics = self.metrics
        self._m_frames_sent = metrics.counter("net.frames_sent")
        self._m_bytes_sent = metrics.counter("net.bytes_sent")
        self._m_frames_delivered = metrics.counter("net.frames_delivered")
        self._m_frames_dropped = metrics.counter("net.frames_dropped")
        self._m_frames_flushed = metrics.counter("net.frames_flushed")
        self._m_batches_flushed = metrics.counter("net.batches_flushed")
        self._m_bytes_flushed = metrics.counter("net.bytes_flushed")
        self._m_reconnects = metrics.counter("net.reconnects")
        metrics.on_snapshot(self._snapshot_gauges)

    def _snapshot_gauges(self, metrics: MetricsRegistry) -> None:
        """Lazy gauges: queue depth and peer connectivity at poll time."""
        metrics.gauge("net.queue_depth").set(
            sum(peer.queue.qsize() for peer in self._peers.values())
        )
        metrics.gauge("net.peers_connected").set(
            sum(1 for peer in self._peers.values() if peer.connected)
        )

    # -- endpoint management (Network-compatible) ---------------------------

    def register(self, node: NodeId, deliver: Callable[[Message], None]) -> None:
        self._endpoints[NodeId(str(node))] = deliver

    def unregister(self, node: NodeId) -> None:
        self._endpoints.pop(node, None)

    def knows(self, node: NodeId) -> bool:
        return node in self._endpoints or node in self.addresses

    # -- server side --------------------------------------------------------

    async def start(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(self._serve_connection, host, port)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Read one connection's frames until it ends; runs as its own task
        (one per accepted connection, one per outbound leg's replies),
        which :meth:`close` cancels."""
        task = asyncio.current_task()
        self._serving.add(task)
        buffer = bytearray()
        try:
            while True:
                # Chunked reads: a coalesced batch of frames arrives in one
                # (or few) chunks and is parsed without per-frame syscalls.
                chunk = await reader.read(READ_CHUNK)
                if not chunk:
                    break
                buffer += chunk
                with self.dispatch_window():
                    self._drain_chunk(buffer, writer)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
            codec.CodecError,
        ):
            pass
        finally:
            self._serving.discard(task)
            stale = [n for n, w in self._reply_routes.items() if w is writer]
            for node in stale:
                del self._reply_routes[node]
            writer.close()

    @contextlib.contextmanager
    def dispatch_window(self):
        """One tick of protocol work; what it produced leaves at its end.

        Wrapped around each inbound chunk and each timer callback. Every
        WAL append the tick triggers shares one fsync when the dispatch
        groups close. A reply route's ``write`` hands bytes to the socket
        at once, so a reply produced inside a window (a quorum of one
        decides there) would be acknowledged before the fsync that makes
        it durable: reply frames are corked while the tick runs and
        written, one joined write per connection, only after the groups
        have closed.

        If a group fails to close (an fsync error), the tick's records
        may not be on media, so nothing it produced may leave: the corked
        replies are dropped with the exception and the transport fails
        stop (:meth:`_fail_stop`).
        """
        corked: dict[asyncio.StreamWriter, list[bytes]] = {}
        self._corked = corked
        groups = contextlib.ExitStack()
        try:
            for factory in self._dispatch_groups:
                groups.enter_context(factory())
            try:
                yield
            finally:
                try:
                    groups.close()
                except Exception as exc:
                    self._fail_stop(exc)
                    raise
        finally:
            self._corked = None
        for route, frames in corked.items():
            if not route.is_closing():
                route.write(b"".join(frames))

    def _fail_stop(self, exc: Exception) -> None:
        """Stop for good: no frame queued or sent from now on leaves.

        Peer frames are queued, not written, during a dispatch, so the
        failed window's are still in the peer queues: they are discarded
        here, before any writer task runs again, and every later send is
        dropped. The runtime's halt callback then stops serving.
        """
        if self.failure is not None:
            return
        self.failure = exc
        for peer in self._peers.values():
            peer.abort()
        self._halt()

    def _drain_chunk(self, buffer: bytearray, writer: asyncio.StreamWriter) -> None:
        """Parse and dispatch every complete frame currently buffered."""
        pos = 0
        have = len(buffer)
        while have - pos >= 4:
            length = codec.frame_length(buffer[pos : pos + 4])
            if have - pos - 4 < length:
                break  # incomplete frame: wait for the next chunk
            body = bytes(buffer[pos + 4 : pos + 4 + length])
            pos += 4 + length
            try:
                sender, dest, payload = codec.decode_frame_body(body)
            except codec.CodecError:
                continue  # poison frame: drop it, keep the stream
            if sender not in self.addresses:
                self._reply_routes[sender] = writer
            try:
                self._dispatch_local(sender, dest, payload, length + 4)
            except Exception:  # noqa: BLE001
                # A handler bug must not tear down the connection
                # (and with it every queued frame from this peer).
                # The simulator fails fast; here we log and go on.
                traceback.print_exc()
        if pos:
            del buffer[:pos]

    def _dispatch_local(
        self, sender: NodeId, dest: NodeId, payload: Any, size: int
    ) -> None:
        if self.policy.blocks(sender, dest):
            # Inbound enforcement: a partition holds even while the far
            # side has not (or cannot — it may be mid-crash) applied it.
            # Only deterministic rules here; loss and delay are applied
            # once, on the sending side.
            self.stats.messages_dropped += 1
            self._m_frames_dropped.inc()
            return
        deliver = self._endpoints.get(dest)
        if deliver is None:
            self.stats.messages_dropped += 1
            self._m_frames_dropped.inc()
            return
        self.stats.messages_delivered += 1
        self._m_frames_delivered.inc()
        deliver(
            Message(
                sender=sender, dest=dest, payload=payload, size=size,
                sent_at=self._clock(),
            )
        )

    # -- sending ------------------------------------------------------------

    def send(
        self, sender: NodeId, dest: NodeId, payload: Any, size: int | None = None
    ) -> None:
        """Send ``payload`` to ``dest``; unreachable destinations drop.

        Never blocks: local destinations are delivered via the event loop,
        remote ones are queued on the peer's writer task.
        """
        route = None
        if dest not in self._endpoints and dest not in self.addresses:
            route = self._reply_routes.get(dest)
        try:
            # Broadcast fast path: consecutive sends of the *same* payload
            # object (an Accept/Decide fanned out to every peer) reuse one
            # payload encoding and only re-frame the header. Protocol
            # payloads are frozen dataclasses, so identity implies equal
            # bytes. The memo holds exactly one strong reference.
            cached = self._encoded_payload
            if cached is not None and cached[0] is payload:
                payload_bytes = cached[1]
            else:
                payload_bytes = codec.encode_payload(payload)
                self._encoded_payload = (payload, payload_bytes)
            frame = codec.encode_frame_precoded(sender, dest, payload_bytes)
        except codec.CodecError:
            self.stats.messages_dropped += 1
            self._m_frames_dropped.inc()
            return
        self.stats.record_send(payload, len(frame) if size is None else size)
        self._m_frames_sent.inc()
        self._m_bytes_sent.inc(len(frame))
        if self.policy.should_drop(sender, dest):
            # Chaos hook: partitioned / one-way-dropped / probabilistically
            # lost. Mirrors the simulator's "sent then lost" accounting.
            self.stats.messages_dropped += 1
            self._m_frames_dropped.inc()
            return
        injected = self.policy.latency(sender, dest)
        if injected > 0.0:
            asyncio.get_running_loop().call_later(
                injected, self._forward, sender, dest, payload, frame, route
            )
            return
        self._forward(sender, dest, payload, frame, route)

    def send_to(
        self, address: Address, sender: NodeId, dest: NodeId, payload: Any,
        size: int | None = None,
    ) -> None:
        """Send to ``dest`` of another group at ``address``: names repeat
        across groups, so the leg is keyed by address (and no link rule,
        which names this service's nodes, applies)."""
        try:
            frame = codec.encode_frame(sender, dest, payload)
        except codec.CodecError:
            frame = b""
        if not frame or self.failure is not None:
            self.stats.messages_dropped += 1
            self._m_frames_dropped.inc()
            return
        self.stats.record_send(payload, len(frame) if size is None else size)
        self._m_frames_sent.inc()
        self._m_bytes_sent.inc(len(frame))
        link = self._peers.get(address)
        if link is None:
            link = self._peers[address] = PeerConnection(self, dest, address)
        link.enqueue(frame)
        link.ensure_running()

    def _forward(
        self,
        sender: NodeId,
        dest: NodeId,
        payload: Any,
        frame: bytes,
        route: asyncio.StreamWriter | None,
    ) -> None:
        """Move one already-encoded frame to its destination leg."""
        if self.failure is not None:
            self.stats.messages_dropped += 1
            self._m_frames_dropped.inc()
            return
        if dest in self._endpoints:
            # Loopback: through the event loop, never synchronous re-entry
            # (mirrors the simulator's zero-delay self-delivery).
            asyncio.get_running_loop().call_soon(
                self._dispatch_local, sender, dest, payload, len(frame)
            )
            return
        address = self.addresses.get(dest)
        if address is not None:
            peer = self._peers.get(dest)
            if peer is None:
                peer = PeerConnection(self, dest, address)
                self._peers[dest] = peer
            peer.enqueue(frame)
            peer.ensure_running()
            return
        if route is not None and not route.is_closing():
            # Reply path for clients: best-effort write on their inbound
            # connection (never awaited, so a slow client only buffers);
            # corked to the end of the chunk while one is being dispatched.
            if self._corked is not None:
                self._corked.setdefault(route, []).append(frame)
            else:
                route.write(frame)
            return
        self.stats.messages_dropped += 1
        self._m_frames_dropped.inc()

    # -- shutdown -----------------------------------------------------------

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
        # End the connections still being read before waiting for the
        # server: from 3.12 on, wait_closed waits for them too.
        serving = list(self._serving)
        for task in serving:
            task.cancel()
        await asyncio.gather(*serving, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        for peer in self._peers.values():
            await peer.close()
        for writer in set(self._reply_routes.values()):
            writer.close()
        self._reply_routes.clear()
