"""Blocking client for a live cluster: submit commands, drive reconfigs.

:class:`LiveClient` is the synchronous counterpart of
:class:`repro.core.client.Client`. It speaks the same protocol payloads
(:class:`ClientRequest` / :class:`ClientReply` / :class:`Redirect` /
:class:`ReconfigRequest`) over plain sockets, one request at a time, with
the same retry discipline the simulated client uses:

* retries reuse the **same** :class:`CommandId`, so replica-side dedup
  gives exactly-once semantics no matter how many times we resend;
* replies come back over the connection the request went out on — only
  the contacted replica registered us as a pending client;
* a :class:`Redirect` (from a retired replica) rotates the view to the
  advertised membership, restricted to nodes we have addresses for;
* timeouts and connection errors rotate round-robin to the next replica.

Intended for tests and the ``repro cluster`` CLI, not high throughput.
:func:`request_reply` is the one-shot form: what the ``#metrics``,
``#chaos`` and shard-map admin round trips share.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Iterable

from repro.core.client import (
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
    :class:`~repro.net.codec.CodecError`; the ``#metrics``, ``#chaos``
    and shard-map callers each report those as their own error type.
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
        members = list(view) if view is not None else sorted(self.addresses)
        self.view: list[NodeId] = sorted(NodeId(str(n)) for n in members)
        self.request_timeout = request_timeout
        self.seq = 0
        self._target_index = 0
        self._sock: socket.socket | None = None
        self._sock_node: NodeId | None = None
        #: inbound reassembly buffer; frames are consumed from ``_buf_pos``
        #: and the prefix is compacted lazily (amortized O(1) per byte).
        self._buffer = bytearray()
        self._buf_pos = 0

    # -- public API ---------------------------------------------------------

    def submit(
        self, op: str, args: tuple[Any, ...] = (), size: int = 64,
        deadline: float = 15.0,
    ) -> ClientReply:
        """Execute one state-machine command; returns its reply."""
        self.seq += 1
        cid = CommandId(self.client, self.seq)
        command = Command(cid, op, tuple(args), size)
        return self._request(ClientRequest(command, self.node), cid, deadline)

    def reconfigure(
        self, members: Iterable[str], deadline: float = 30.0
    ) -> ClientReply:
        """Reconfigure the cluster to ``members``; returns the ack reply."""
        self.seq += 1
        cid = CommandId(self.client, self.seq)
        command = ReconfigCommand(cid, Membership.from_iter(members))
        return self._request(ReconfigRequest(command, self.node), cid, deadline)

    def submit_pipelined(
        self,
        ops: list[tuple[str, tuple[Any, ...], int]],
        window: int = 32,
        deadline: float = 60.0,
    ) -> list[float]:
        """Submit ``ops`` (``(op, args, size)`` triples) with pipelining.

        Keeps up to ``window`` requests in flight on one connection and
        returns the per-command latency (seconds, submission order). Used
        by the shard benchmark: the one-at-a-time :meth:`submit` loop
        measures client round-trips, not replica throughput. Outgoing
        commands coalesce into :class:`RequestBatch` frames (up to
        :data:`PIPELINE_COALESCE` per frame) so frame overhead amortizes;
        the replica unpacks them per command. Retries reuse CommandIds
        (replica dedup keeps this exactly-once); a command not
        acknowledged by ``deadline`` raises :class:`LiveClientError`.
        """
        started = time.monotonic()
        give_up_at = started + deadline
        latencies: list[float] = [0.0] * len(ops)
        pending: list[tuple[CommandId, Command]] = []
        index_of: dict[CommandId, int] = {}
        for i, (op, args, size) in enumerate(ops):
            self.seq += 1
            cid = CommandId(self.client, self.seq)
            command = Command(cid, op, tuple(args), size)
            index_of[cid] = i
            pending.append((cid, command))
        acked: set[CommandId] = set()
        sent: dict[CommandId, float] = {}
        first_sent: dict[CommandId, float] = {}
        next_to_send = 0
        target = self.view[self._target_index % len(self.view)]
        while len(acked) < len(ops):
            if time.monotonic() >= give_up_at:
                unacked = [
                    index_of[cid] for cid, _ in pending if cid not in acked
                ]
                shown = ", ".join(str(i) for i in unacked[:10])
                if len(unacked) > 10:
                    shown += f", ... ({len(unacked) - 10} more)"
                raise LiveClientError(
                    f"pipelined run stalled: {len(acked)}/{len(ops)} "
                    f"acknowledged after {time.monotonic() - started:.1f}s "
                    f"(deadline {deadline:g}s, window {window}); "
                    f"unacknowledged op indices: [{shown}]"
                )
            try:
                sock = self._connect(target)
                # Fill the window in one sendall, packing commands into
                # RequestBatch frames: one frame's encode/dispatch cost
                # covers up to PIPELINE_COALESCE commands. Frames carry
                # their destination, so encode per target.
                burst: list[bytes] = []
                group: list[Command] = []
                now = time.monotonic()
                while next_to_send < len(pending) and len(sent) < window:
                    cid, command = pending[next_to_send]
                    next_to_send += 1
                    if cid in acked:
                        continue
                    group.append(command)
                    sent[cid] = now
                    first_sent.setdefault(cid, now)
                    if len(group) >= PIPELINE_COALESCE:
                        burst.append(self._pipeline_frame(target, group))
                        group = []
                if group:
                    burst.append(self._pipeline_frame(target, group))
                if burst:
                    sock.sendall(b"".join(burst))
                body = self._read_frame(sock, self._attempt_budget(give_up_at))
            except (OSError, codec.CodecError):
                self._drop_connection()
                self._rotate()
                target = self.view[self._target_index % len(self.view)]
                next_to_send, sent = self._first_unacked(pending, acked), {}
                time.sleep(0.05)
                continue
            if body is None:
                # Stalled: resend everything outstanding. CommandIds are
                # reused, so replica-side dedup keeps this exactly-once.
                next_to_send, sent = self._first_unacked(pending, acked), {}
                continue
            _, _, payload = codec.decode_frame_body(body)
            if isinstance(payload, Redirect):
                self._apply_redirect(payload)
                target = self.view[self._target_index % len(self.view)]
                next_to_send, sent = self._first_unacked(pending, acked), {}
                continue
            replies = (
                payload.replies if isinstance(payload, ReplyBatch) else (payload,)
            )
            for reply in replies:
                if (
                    isinstance(reply, ClientReply)
                    and reply.cid in index_of
                    and reply.cid not in acked
                ):
                    # Normal case: measured from the in-flight send. After
                    # a rewind the in-flight record is gone; fall back to
                    # the first transmission so retried commands count
                    # their full wait instead of dropping from the sample.
                    t0 = sent.pop(reply.cid, None)
                    if t0 is None:
                        t0 = first_sent.get(reply.cid, time.monotonic())
                    latencies[index_of[reply.cid]] = time.monotonic() - t0
                    acked.add(reply.cid)
        return latencies

    def _pipeline_frame(self, target: NodeId, group: list[Command]) -> bytes:
        """Encode one outgoing pipelined frame (single or batched)."""
        payload: Any = (
            ClientRequest(group[0], self.node)
            if len(group) == 1
            else RequestBatch(tuple(group), self.node)
        )
        return codec.encode_frame(self.node, target, payload)

    @staticmethod
    def _first_unacked(
        pending: list[tuple[CommandId, Any]], acked: set[CommandId]
    ) -> int:
        for i, (cid, _) in enumerate(pending):
            if cid not in acked:
                return i
        return len(pending)

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

    def _request(self, payload: Any, cid: CommandId, deadline: float) -> ClientReply:
        give_up_at = time.monotonic() + deadline
        last_error: str = "no replicas tried"
        while time.monotonic() < give_up_at:
            target = self.view[self._target_index % len(self.view)]
            budget = self._attempt_budget(give_up_at)
            try:
                sock = self._connect(target)
                # Frames carry their destination; rewrite it per target.
                sock.sendall(codec.encode_frame(self.node, target, payload))
                reply = self._read_reply(sock, cid, budget)
            except (OSError, codec.CodecError) as exc:
                last_error = f"{target}: {exc}"
                self._drop_connection()
                self._rotate()
                time.sleep(0.05)
                continue
            if isinstance(reply, ClientReply):
                return reply
            if isinstance(reply, Redirect):
                self._apply_redirect(reply)
                continue
            last_error = f"{target}: timed out after {budget:.2f}s"
            self._rotate()
        raise LiveClientError(f"{cid} not acknowledged in {deadline}s ({last_error})")

    def _apply_redirect(self, redirect: Redirect) -> None:
        reachable = sorted(n for n in redirect.members.nodes if n in self.addresses)
        if reachable and reachable != self.view:
            self.view = reachable
            self._target_index = 0
        else:
            self._rotate()

    def _rotate(self) -> None:
        self._target_index = (self._target_index + 1) % len(self.view)

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

    def _read_reply(
        self, sock: socket.socket, cid: CommandId, timeout: float
    ) -> ClientReply | Redirect | None:
        """Read frames until a reply for ``cid`` arrives or ``timeout``."""
        give_up_at = time.monotonic() + max(timeout, 0.0)
        while True:
            remaining = give_up_at - time.monotonic()
            if remaining <= 0:
                return None
            frame_body = self._read_frame(sock, remaining)
            if frame_body is None:
                return None
            _, _, payload = codec.decode_frame_body(frame_body)
            if isinstance(payload, (ClientReply, Redirect)) and payload.cid == cid:
                return payload
            # Anything else (stale reply from an earlier attempt) is skipped.

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
