"""Blocking client for a live cluster: submit commands, drive reconfigs.

:class:`LiveClient` drives :class:`repro.core.client.ClientCore`, the
lane-and-route core the simulated client drives too, so it keeps the same
retry discipline the simulated client uses: one command in flight per
lane (``submit`` and ``reconfigure`` use the client's own name, a
pipelined window of ``w`` the lanes ``<name>/<k>``), retries under the
**same** :class:`CommandId`, and a route that follows a ``Redirect``
to members we have an address for. What stays here is the I/O: replies come
back over the connection the request went out on (only the contacted
replica registered us as a pending client), outgoing commands coalesce
into :class:`RequestBatch` frames, everything outstanding is resent after
silence, a redirect or a connection error, and a failed connect backs off
50 ms.

Intended for tests, benches and the live scenario loop (``repro storm``).
:func:`request_reply` is the one-shot form: what the ``#metrics`` and
``#chaos`` admin round trips share.
"""

from __future__ import annotations

import random
import socket
import time
from functools import partial
from typing import Any, Iterable

from repro.core.client import (
    ClientCore,
    ClientReply,
    ClientRequest,
    Redirect,
    ReplyBatch,
    RequestBatch,
)
from repro.core.command import ReconfigCommand, ReconfigRequest
from repro.net import codec
from repro.net.transport import Address
from repro.types import ClientId, Command, CommandId, Membership, NodeId


class LiveClientError(RuntimeError):
    """A request could not be completed before its deadline."""


#: commands coalesced per RequestBatch frame by the pipelined submit path.
#: Bounded so a lost frame costs at most this many retransmissions and a
#: single frame stays far below the codec's frame-size ceiling. 96 was the
#: sweep winner on the commit benchmark (T14): larger frames start to
#: stall the window behind one slow decode, smaller ones waste dispatch.
PIPELINE_COALESCE = 96

#: floor for one attempt's socket budget, in seconds. At the deadline edge
#: ``min(request_timeout, give_up_at - now)`` goes to zero or negative —
#: a zero/negative budget means the attempt sends and then cannot wait for
#: the reply at all (and a negative value handed to ``socket.settimeout``
#: raises ``ValueError`` instead of rotating to the next replica), so every
#: attempt is clamped to at least this much listening time.
MIN_ATTEMPT_BUDGET = 0.05


def request_reply(
    address: Address,
    sender: NodeId,
    dest: NodeId,
    request: Any,
    reply_type: type,
    timeout: float,
) -> Any:
    """One blocking admin round trip on a connection of its own.

    Sends ``request`` (any payload with a ``cid``) to the endpoint
    ``dest`` at ``address`` and reads frames until a ``reply_type`` with
    the same ``cid`` arrives. Raises ``OSError`` (refused, closed, or
    ``TimeoutError`` once ``timeout`` has run out) or
    :class:`~repro.net.codec.CodecError`; the ``#metrics`` and ``#chaos``
    callers each report those as their own error type.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(codec.encode_frame(sender, dest, request))
        buffer = b""
        give_up_at = time.monotonic() + timeout
        while True:
            while len(buffer) >= 4:
                length = codec.frame_length(buffer[:4])
                if len(buffer) < 4 + length:
                    break
                body = buffer[4 : 4 + length]
                buffer = buffer[4 + length :]
                _, _, payload = codec.decode_frame_body(body)
                if isinstance(payload, reply_type) and payload.cid == request.cid:
                    return payload
            remaining = give_up_at - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no {reply_type.__name__} within {timeout}s")
            sock.settimeout(max(remaining, 0.01))
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError(f"closed before the {reply_type.__name__}")
            buffer += chunk


def _bind(item: Any, cid: CommandId) -> Command | ReconfigCommand:
    """A membership is a RECONFIGURE, an ``(op, args, size)`` a command."""
    if isinstance(item, Membership):
        return ReconfigCommand(cid, item)
    op, args, size = item
    return Command(cid, op, tuple(args), size)


class LiveClient:
    """Synchronous request/reply client for live TCP replicas."""

    def __init__(
        self,
        name: str,
        addresses: dict[str, Address] | dict[NodeId, Address],
        view: Iterable[str] | None = None,
        request_timeout: float = 1.0,
    ):
        self.node = NodeId(str(name))
        self.client = ClientId(str(name))
        #: address book: every replica we may ever be redirected to.
        self.addresses = {NodeId(str(n)): a for n, a in addresses.items()}
        members = list(view) if view is not None else self.addresses
        self.core = ClientCore(
            (NodeId(str(n)) for n in members),
            random.Random(str(name)),
            reachable=self.addresses,
        )
        self.request_timeout = request_timeout
        self._sock: socket.socket | None = None
        self._sock_node: NodeId | None = None
        #: inbound reassembly buffer; frames are consumed from ``_buf_pos``
        #: and the prefix is compacted lazily (amortized O(1) per byte).
        self._buffer = bytearray()
        self._buf_pos = 0

    # -- public API ---------------------------------------------------------

    @property
    def view(self) -> list[NodeId]:
        """The members the route runs over, sorted."""
        return self.core.view

    @view.setter
    def view(self, members: Iterable[NodeId]) -> None:
        self.core.view = sorted(members)

    @property
    def seq(self) -> int:
        """Seq of the newest command sent on the client's own identity."""
        return self.core.seqs.get(self.client, 0)

    def submit(
        self, op: str, args: tuple[Any, ...] = (), size: int = 64,
        deadline: float = 15.0,
    ) -> ClientReply:
        """Execute one state-machine command; returns its reply."""
        return self._run([(op, args, size)], [self.client], deadline)[0][0]

    def reconfigure(
        self, members: Iterable[str], deadline: float = 30.0
    ) -> ClientReply:
        """Reconfigure the cluster to ``members``; returns the ack reply."""
        membership = Membership.from_iter(members)
        return self._run([membership], [self.client], deadline)[0][0]

    def submit_pipelined(
        self,
        ops: list[tuple[str, tuple[Any, ...], int]],
        window: int = 32,
        deadline: float = 60.0,
    ) -> list[float]:
        """Submit ``ops`` (``(op, args, size)`` triples) with pipelining.

        Keeps up to ``window`` commands in flight on one connection, one
        per lane ``<name>/<k>``, and returns the per-command latency
        (seconds from first transmission, submission order). Used by the
        shard benchmark: the one-at-a-time :meth:`submit` loop measures
        client round-trips, not replica throughput. Outgoing commands
        coalesce into :class:`RequestBatch` frames (up to
        :data:`PIPELINE_COALESCE` per frame); a command not acknowledged
        by ``deadline`` raises :class:`LiveClientError`.
        """
        lanes = [ClientId(f"{self.client}/{k}") for k in range(window)]
        return self._run(ops, lanes, deadline)[1]

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "LiveClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- request loop -------------------------------------------------------

    def _attempt_budget(self, give_up_at: float) -> float:
        """Listening budget for one attempt, clamped to a positive floor."""
        return max(
            MIN_ATTEMPT_BUDGET,
            min(self.request_timeout, give_up_at - time.monotonic()),
        )

    def _run(
        self, items: list[Any], lanes: list[ClientId], deadline: float
    ) -> tuple[list[ClientReply], list[float]]:
        """Send ``items`` in order, each on a free lane (one command in
        flight per lane); returns the replies and latencies in order."""
        started = time.monotonic()
        give_up_at = started + deadline
        core = self.core
        core.use_lanes(lanes)
        replies: list[Any] = [None] * len(items)
        latencies = [0.0] * len(items)
        index: dict[CommandId, int] = {}  # cid -> its item's index
        queued = 0  # next item to bind to a lane
        resend = False
        last_error = "no replicas tried"
        while queued < len(items) or core.outstanding:
            now = time.monotonic()
            if now >= give_up_at:
                unacked = [i for i, reply in enumerate(replies) if reply is None]
                shown = ", ".join(str(i) for i in unacked[:10])
                if len(unacked) > 10:
                    shown += f", ... ({len(unacked) - 10} more)"
                raise LiveClientError(
                    f"{self.client} stalled: {queued - len(core.outstanding)}/"
                    f"{len(items)} acknowledged "
                    f"after {now - started:.1f}s (deadline {deadline:g}s, "
                    f"window {len(lanes)}); unacknowledged op indices: "
                    f"[{shown}]; last error: {last_error}"
                )
            target = core.target
            budget = self._attempt_budget(give_up_at)
            try:
                sock = self._connect(target)
                fresh = []
                while queued < len(items):
                    entry = core.issue(partial(_bind, items[queued]), now)
                    if entry is None:
                        break
                    index[entry.command.cid] = queued
                    fresh.append(entry.command)
                    queued += 1
                outgoing = (
                    [entry.command for entry in core.outstanding.values()]
                    if resend else fresh
                )
                resend = False
                if outgoing:
                    # Frames carry their destination, so encode per target.
                    sock.sendall(b"".join(
                        self._frame(target, outgoing[at : at + PIPELINE_COALESCE])
                        for at in range(0, len(outgoing), PIPELINE_COALESCE)
                    ))
                body = self._read_frame(sock, budget)
                payload = None if body is None else codec.decode_frame_body(body)[2]
            except (OSError, codec.CodecError) as exc:
                last_error = f"{target}: {exc}"
                self._drop_connection()
                core.failed(target)
                resend = True
                time.sleep(0.05)
                continue
            if payload is None:
                last_error = f"{target}: timed out after {budget:.2f}s"
                core.failed(target)
                resend = True
            elif isinstance(payload, Redirect):
                resend = core.redirected(payload) is not None
            else:
                arrived = time.monotonic()
                for reply in (
                    payload.replies if isinstance(payload, ReplyBatch) else (payload,)
                ):
                    if not isinstance(reply, ClientReply):
                        continue
                    entry = core.replied(reply.cid)
                    if entry is None:
                        continue  # a stale reply from an earlier attempt
                    at = index.pop(reply.cid)
                    replies[at] = reply
                    latencies[at] = arrived - entry.invoked_at
        return replies, latencies

    def _frame(self, target: NodeId, group: list[Any]) -> bytes:
        """One outgoing frame: a bare request, or a RequestBatch of many."""
        payload: Any
        if len(group) > 1:
            payload = RequestBatch(tuple(group), self.node)
        elif isinstance(group[0], ReconfigCommand):
            payload = ReconfigRequest(group[0], self.node)
        else:
            payload = ClientRequest(group[0], self.node)
        return codec.encode_frame(self.node, target, payload)

    # -- socket plumbing ----------------------------------------------------

    def _connect(self, target: NodeId) -> socket.socket:
        if self._sock is not None and self._sock_node == target:
            return self._sock
        self._drop_connection()
        sock = socket.create_connection(self.addresses[target], timeout=2.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._sock_node = target
        self._buffer = bytearray()
        self._buf_pos = 0
        return sock

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close() best effort
                pass
        self._sock = None
        self._sock_node = None
        self._buffer = bytearray()
        self._buf_pos = 0

    def _read_frame(self, sock: socket.socket, timeout: float) -> bytes | None:
        give_up_at = time.monotonic() + timeout
        buffer = self._buffer
        while True:
            pos = self._buf_pos
            if len(buffer) - pos >= 4:
                length = codec.frame_length(buffer[pos : pos + 4])
                if len(buffer) - pos >= 4 + length:
                    body = bytes(buffer[pos + 4 : pos + 4 + length])
                    self._buf_pos = pos + 4 + length
                    return body
            # Compact the consumed prefix before blocking on the socket so
            # the buffer never grows without bound across a long run.
            if pos:
                del buffer[:pos]
                self._buf_pos = 0
            remaining = give_up_at - time.monotonic()
            if remaining <= 0:
                return None
            sock.settimeout(remaining)
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                return None
            if not chunk:
                raise ConnectionError("replica closed the connection")
            buffer += chunk
