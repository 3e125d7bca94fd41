"""Transport-level tests: frame coalescing, loss accounting, poison frames,
and what close leaves behind.

All tests drive real :class:`TcpTransport` instances over loopback
sockets inside ``asyncio.run`` (the tier-1 suite has no async plugin).
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.net import codec
from repro.net import transport as transport_mod
from repro.net.transport import PeerConnection, TcpTransport
from repro.types import NodeId


async def _start_receiver(
    name: str, collect: list, **kwargs
) -> tuple[TcpTransport, tuple[str, int]]:
    transport = TcpTransport({}, **kwargs)
    transport.register(NodeId(name), lambda msg: collect.append(msg.payload))
    await transport.start("127.0.0.1", 0)
    address = transport._server.sockets[0].getsockname()[:2]
    return transport, address


async def _wait_for(predicate, timeout: float = 5.0) -> None:
    give_up_at = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > give_up_at:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.005)


class TestCoalescing:
    def test_burst_preserves_fifo_and_batches_writes(self):
        asyncio.run(self._burst())

    async def _burst(self):
        received: list = []
        receiver, address = await _start_receiver("n2", received)
        sender = TcpTransport({NodeId("n2"): address})
        try:
            n = 200
            # One synchronous enqueue loop: the writer task first wakes up
            # with the whole burst queued, so it must coalesce.
            for i in range(n):
                sender.send(NodeId("n1"), NodeId("n2"), i)
            await _wait_for(lambda: len(received) == n)
            assert received == list(range(n)), "coalescing broke FIFO order"
            peer = sender._peers[NodeId("n2")]
            assert peer.frames_sent == n
            assert peer.batches_sent <= n // 10, (
                f"{peer.batches_sent} write+drain rounds for {n} frames: "
                "the writer is not coalescing"
            )
        finally:
            await sender.close()
            await receiver.close()

    def test_size_cap_splits_batches(self, monkeypatch):
        # Cap so small that every batch holds exactly one frame.
        monkeypatch.setattr(transport_mod, "COALESCE_MAX_BYTES", 1)
        asyncio.run(self._size_cap())

    async def _size_cap(self):
        received: list = []
        receiver, address = await _start_receiver("n2", received)
        sender = TcpTransport({NodeId("n2"): address})
        try:
            for i in range(20):
                sender.send(NodeId("n1"), NodeId("n2"), i)
            await _wait_for(lambda: len(received) == 20)
            assert received == list(range(20))
            peer = sender._peers[NodeId("n2")]
            assert peer.batches_sent == 20
        finally:
            await sender.close()
            await receiver.close()


class TestLossAccounting:
    def test_inflight_batch_counted_dropped_on_write_failure(self, monkeypatch):
        asyncio.run(self._write_failure(monkeypatch))

    async def _write_failure(self, monkeypatch):
        monkeypatch.setattr(transport_mod, "RECONNECT_MIN", 30.0)
        monkeypatch.setattr(transport_mod, "QUEUE_LIMIT", 16)
        transport = TcpTransport({NodeId("n2"): ("127.0.0.1", 9)})

        class FailingWriter:
            def write(self, data: bytes) -> None:
                raise ConnectionResetError("peer went away mid-write")

            async def drain(self) -> None:  # pragma: no cover - not reached
                pass

            def close(self) -> None:
                pass

        async def fake_open(*args, **kwargs):
            return None, FailingWriter()

        monkeypatch.setattr(asyncio, "open_connection", fake_open)
        conn = PeerConnection(transport, NodeId("n2"), ("127.0.0.1", 9))
        for i in range(3):
            conn.enqueue(b"frame-%d" % i)
        conn.ensure_running()
        # The popped-but-unwritten batch must show up in loss accounting
        # (before this fix the frames vanished without a trace).
        await _wait_for(lambda: conn.dropped == 3)
        assert transport.stats.messages_dropped == 3
        await conn.close()


def _frame(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


async def _read_frame(reader: asyncio.StreamReader) -> tuple:
    header = await asyncio.wait_for(reader.readexactly(4), timeout=5.0)
    body = await asyncio.wait_for(
        reader.readexactly(codec.frame_length(header)), timeout=5.0
    )
    return codec.decode_frame_body(body)


def _rejected_key_range_frame() -> bytes:
    """A well-formed frame whose payload ``KeyRange.__post_init__`` refuses."""
    from repro.shard.shardmap import KeyRange

    bad = object.__new__(KeyRange)  # lo > hi: the constructor would raise
    object.__setattr__(bad, "lo", 5)
    object.__setattr__(bad, "hi", 1)
    return codec.encode_frame(NodeId("c9"), NodeId("n1"), bad)


def _column_frame(kind: str) -> bytes:
    """A frame whose payload is one of the malformed column blocks."""
    from tests.test_codec import MALFORMED_BLOCKS

    return codec.encode_frame_precoded(
        NodeId("c9"), NodeId("n1"), MALFORMED_BLOCKS[kind]()
    )


def _truncated_column_frame() -> bytes:
    """A request batch cut off inside its column block; the length prefix
    matches the cut body, so only the payload is malformed."""
    from repro.core.client import RequestBatch
    from repro.types import ClientId, Command, CommandId

    rows = tuple(
        Command(CommandId(ClientId("c9"), i), "set", (f"k{i}",), 64)
        for i in range(codec.COLUMN_CROSSOVER)
    )
    batch = RequestBatch(rows, NodeId("c9"))
    body = codec.encode_frame(NodeId("c9"), NodeId("n1"), batch)[4:]
    return _frame(body[: len(body) // 2])


#: what a peer that does not speak the wire format might send: the
#: retired JSON envelope, a bare JSON object, a frame in the right
#: format whose registered type rejects its own decoded fields, and
#: malformed column blocks.
POISON_FRAMES = {
    "legacy-json": lambda: _frame(b'{"s":"c9","d":"n1","p":"ping"}'),
    "bare-object": lambda: _frame(b"{}"),
    "rejected-dataclass": _rejected_key_range_frame,
    "column-truncated": _truncated_column_frame,
    "column-index-past-table": lambda: _column_frame("index-past-table"),
    "column-negative-index": lambda: _column_frame("negative-index"),
    "column-oversized-length": lambda: _column_frame("oversized-tuple-length"),
    "column-unknown-kind": lambda: _column_frame("unknown-column-kind"),
    "column-below-crossover": lambda: _column_frame("below-crossover"),
    "column-rejected-key-range": lambda: _column_frame("rejected-key-range"),
}


class TestPoisonFrames:
    @pytest.mark.parametrize("kind", sorted(POISON_FRAMES))
    def test_poison_frame_is_dropped_and_stream_survives(self, kind):
        asyncio.run(self._poison_then_ping(POISON_FRAMES[kind]()))

    async def _poison_then_ping(self, poison: bytes):
        received: list = []
        server = TcpTransport({})

        def echo(msg):
            received.append(msg.payload)
            server.send(NodeId("n1"), msg.sender, ["echo", msg.payload])

        server.register(NodeId("n1"), echo)
        await server.start("127.0.0.1", 0)
        host, port = server._server.sockets[0].getsockname()[:2]
        try:
            reader, writer = await asyncio.open_connection(host, port)
            # One write: the good frame sits behind the poison one in the
            # same chunk, so a reader task that dies on the first never
            # delivers the second.
            writer.write(
                poison + codec.encode_frame(NodeId("c9"), NodeId("n1"), "ping")
            )
            await writer.drain()
            assert await _read_frame(reader) == (
                NodeId("n1"), NodeId("c9"), ["echo", "ping"]
            )
            assert received == ["ping"], "the poison frame was dispatched"
            # The connection is still open and still routed: a second
            # request on it is answered too.
            writer.write(codec.encode_frame(NodeId("c9"), NodeId("n1"), "again"))
            await writer.drain()
            assert (await _read_frame(reader))[2] == ["echo", "again"]
            writer.close()
        finally:
            await server.close()


class TestBroadcastEncodesOnce:
    """An engine message fanned out to every peer is encoded once: the
    engine hands the transport one envelope object for the whole fan-out,
    which is what the transport's one-entry payload memo keys on."""

    def test_one_accept_to_two_peers_costs_one_encode(self, monkeypatch):
        asyncio.run(self._fan_out(monkeypatch))

    async def _fan_out(self, monkeypatch):
        from repro.consensus import messages as m
        from repro.consensus.interface import InstanceMessage, StaticSmrHost
        from repro.consensus.multipaxos import MultiPaxosEngine
        from repro.net.cluster import free_port
        from repro.net.runtime import LiveRuntime
        from repro.types import Membership

        encoded: list = []
        real_encode = codec.encode_payload

        def counting_encode(payload):
            encoded.append(payload)
            return real_encode(payload)

        monkeypatch.setattr(codec, "encode_payload", counting_encode)
        # Nobody listens at the peers' addresses: frames only queue.
        port = TcpTransport(
            {NodeId(n): ("127.0.0.1", free_port()) for n in ("n2", "n3")}
        )
        runtime = LiveRuntime(port)
        try:
            host = StaticSmrHost(
                runtime, NodeId("n1"), Membership.of("n1", "n2", "n3"),
                MultiPaxosEngine.factory(),
            )
            host.engine._send_accepts(0, "value")
            accepts = [
                p for p in encoded
                if isinstance(p, InstanceMessage) and isinstance(p.inner, m.Accept)
            ]
            assert len(accepts) == 1
            assert port.stats.messages_sent == 2
        finally:
            await port.close()
            runtime._loop.close()


class TestRepliesOnOpenedConnections:
    """A peer answers an endpoint it does not know by name on the
    connection the request came in on. When this transport opened that
    connection, the reply must still reach the local endpoint."""

    @pytest.mark.parametrize("how", ["peer", "send_to"])
    def test_reply_reaches_the_local_endpoint(self, how):
        asyncio.run(self._round_trip(how))

    async def _round_trip(self, how):
        far = TcpTransport({})
        far.register(
            NodeId("n1"),
            lambda msg: far.send(NodeId("n1"), msg.sender, ("re", msg.payload)),
        )
        await far.start("127.0.0.1", 0)
        address = far._server.sockets[0].getsockname()[:2]
        # ``peer``: the far node is in the book under its name. ``send_to``:
        # it is another group's n1, and this process has an n1 of its own.
        book = {NodeId("n1"): address} if how == "peer" else {}
        near = TcpTransport(book)
        replies: list = []
        near.register(NodeId("n1-driver"), lambda msg: replies.append(msg.payload))
        if how == "send_to":
            near.register(NodeId("n1"), lambda msg: None)
        try:
            if how == "peer":
                near.send(NodeId("n1-driver"), NodeId("n1"), "ping")
            else:
                near.send_to(address, NodeId("n1-driver"), NodeId("n1"), "ping")
            await _wait_for(lambda: replies == [("re", "ping")])
        finally:
            await near.close()
            await far.close()


class TestClose:
    def test_close_ends_the_connections_it_accepted(self):
        asyncio.run(self._close_with_a_client_connected())

    async def _close_with_a_client_connected(self):
        def serving() -> list[asyncio.Task]:
            return [
                task for task in asyncio.all_tasks()
                if task.get_coro().__qualname__ == "TcpTransport._serve_connection"
                and not task.done()
            ]

        receiver, address = await _start_receiver("n2", [])
        reader, writer = await asyncio.open_connection(*address)
        try:
            await _wait_for(lambda: len(serving()) == 1)
            # Bounded: from 3.12 on, a server's wait_closed also waits
            # for the connections it accepted.
            await asyncio.wait_for(receiver.close(), 5.0)
            assert serving() == []
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
        finally:
            writer.close()
