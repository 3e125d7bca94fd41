"""The shard director: map authority and drain-and-cutover driver.

A :class:`ShardDirector` owns the **authoritative** shard map and serves
it over a tiny threaded TCP endpoint speaking the normal frame codec:
:class:`~repro.shard.messages.ShardMapRequest` /
:class:`~repro.shard.messages.RouteRequest` for lookups, and
:class:`~repro.shard.messages.SplitShard` /
:class:`~repro.shard.messages.MoveShard` for the elastic operations.

It is deliberately *not* on the data path: clients cache the map and
talk straight to groups. The director is consulted when a cache misses
(first contact) or when a redirect carries no usable hint — so a dead
director degrades map *freshness*, never data availability.

A move runs the drain-and-cutover protocol against the groups' own logs:

1. ``shard_retire`` is submitted to the source group as a normal
   replicated command. Its log position is the drain: it atomically
   stops service for the range, records a forwarding hint, and returns
   the captured items.
2. ``shard_install`` is submitted to the target group with those items;
   its log position atomically starts service there.
3. Only then does the director swap in the new map (version + 1).

Between 1 and 3, clients chasing the range are bounced by WrongShard
hints (source → target) or by the director's still-old map; both resolve
within the client's redirect budget. Admin operations are serialized by
one lock — the map version chain is linear by construction.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from typing import Any

from repro.net import codec
from repro.shard.messages import (
    MoveShard,
    RouteRequest,
    RouteReply,
    ShardAck,
    ShardMapReply,
    ShardMapRequest,
    SplitShard,
)
from repro.shard.shardmap import ShardError, ShardMap, key_point
from repro.types import NodeId

#: wire name the director answers as (there is one per sharded service).
DIRECTOR_NODE = "shard-director"


class _DirectorServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _Handler(socketserver.BaseRequestHandler):
    """One connection: read frames, dispatch, reply in the same format."""

    def handle(self) -> None:  # pragma: no cover - exercised over sockets
        director: "ShardDirector" = self.server.director  # type: ignore[attr-defined]
        sock: socket.socket = self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buffer = b""
        while not director.closed:
            while len(buffer) >= 4:
                length = codec.frame_length(buffer[:4])
                if len(buffer) < 4 + length:
                    break
                body = buffer[4 : 4 + length]
                buffer = buffer[4 + length :]
                try:
                    sender, _, payload = codec.decode_frame_body(body)
                    reply = director.dispatch(payload)
                except codec.CodecError:
                    return
                if reply is not None:
                    try:
                        sock.sendall(
                            codec.encode_frame(
                                NodeId(DIRECTOR_NODE), sender, reply
                            )
                        )
                    except OSError:
                        return
            try:
                chunk = sock.recv(65536)
            except OSError:
                return
            if not chunk:
                return
            buffer += chunk


class ShardDirector:
    """Authoritative shard map + the split/move admin service."""

    def __init__(
        self,
        shard_map: ShardMap,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float = 2.0,
    ):
        shard_map.validate()
        self._map = shard_map
        self.request_timeout = request_timeout
        #: serializes split/move cutovers (the version chain is linear).
        self._admin_lock = threading.Lock()
        self._map_lock = threading.Lock()
        self.closed = False
        self._moves = 0
        self._server = _DirectorServer((host, port), _Handler)
        self._server.director = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="shard-director",
            daemon=True,
        )
        self._thread.start()

    # -- map access ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return (str(host), int(port))

    @property
    def shard_map(self) -> ShardMap:
        with self._map_lock:
            return self._map

    def _swap(self, new_map: ShardMap) -> None:
        with self._map_lock:
            if new_map.version <= self._map.version:  # pragma: no cover
                raise ShardError(
                    f"map version went backwards: {self._map.version} -> "
                    f"{new_map.version}"
                )
            self._map = new_map

    # -- wire dispatch ------------------------------------------------------

    def dispatch(self, payload: Any) -> Any:
        """Answer one decoded request payload (None = not ours, drop)."""
        if isinstance(payload, ShardMapRequest):
            return ShardMapReply(payload.cid, self.shard_map)
        if isinstance(payload, RouteRequest):
            shard_map = self.shard_map
            point = key_point(payload.key)
            return RouteReply(
                payload.cid, payload.key, point,
                shard_map.group_for_point(point), shard_map.version,
            )
        if isinstance(payload, SplitShard):
            return self._admin(
                payload.cid, "split",
                lambda: self.split(
                    payload.group,
                    at=None if payload.at < 0 else payload.at,
                    target=payload.target or None,
                ),
            )
        if isinstance(payload, MoveShard):
            return self._admin(
                payload.cid, "move",
                lambda: self.move(payload.lo, payload.hi, payload.target),
            )
        return None

    def _admin(self, cid: Any, op: str, action: Any) -> ShardAck:
        try:
            new_map = action()
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            return ShardAck(cid, op, False, f"{type(exc).__name__}: {exc}",
                            self.shard_map.version)
        return ShardAck(
            cid, op, True,
            f"version {new_map.version}: "
            + "; ".join(
                f"{a.group}{a.range}" for a in new_map.assignments
            ),
            new_map.version,
        )

    # -- elastic operations -------------------------------------------------

    def split(
        self,
        group: str,
        at: int | None = None,
        target: str | None = None,
        deadline: float = 30.0,
    ) -> ShardMap:
        """Split ``group``'s widest range and move the upper half away.

        ``at`` defaults to the midpoint; ``target`` defaults to the group
        owning the least of the hash space (ties broken by name), which
        is what makes repeated splits a crude rebalancer.
        """
        with self._admin_lock:
            shard_map = self.shard_map
            widest = shard_map.widest_range_of(group)
            point = widest.midpoint if at is None else at
            if not widest.contains(point) or point == widest.lo:
                raise ShardError(
                    f"split point {point} not inside {widest} (exclusive of lo)"
                )
            if target is None:
                owned = {info.name: 0 for info in shard_map.groups}
                for assignment in shard_map.assignments:
                    owned[assignment.group] += assignment.range.width
                target = min(
                    (name for name in owned if name != group),
                    key=lambda name: (owned[name], name),
                )
            return self._cutover(point, widest.hi, target, deadline)

    def move(
        self, lo: int, hi: int, target: str, deadline: float = 30.0
    ) -> ShardMap:
        """Move exactly ``[lo, hi)`` to ``target`` (drain-and-cutover)."""
        with self._admin_lock:
            return self._cutover(lo, hi, target, deadline)

    def publish_group(self, info: Any) -> ShardMap:
        """Publish a group's new membership (after add/remove replica)."""
        with self._admin_lock:
            new_map = self.shard_map.with_group(info)
            self._swap(new_map)
            return new_map

    def _cutover(
        self, lo: int, hi: int, target: str, deadline: float
    ) -> ShardMap:
        """The two-command move protocol; swaps the map on success."""
        from repro.net.client import LiveClient

        shard_map = self.shard_map
        source = shard_map.assignment_at(lo).group
        if source == target:
            raise ShardError(f"range [{lo}, {hi}) already owned by {target!r}")
        # Validates bounds/containment before any command is sent.
        new_map = shard_map.with_move(lo, hi, target)
        version = new_map.version
        self._moves += 1
        started = time.monotonic()

        source_info = shard_map.group_info(source)
        target_info = shard_map.group_info(target)
        with LiveClient(
            f"director-m{self._moves}-r",
            source_info.addresses,
            view=source_info.members,
            request_timeout=self.request_timeout,
        ) as retire_client:
            reply = retire_client.submit(
                "shard_retire", (lo, hi, version, target), deadline=deadline
            )
        capture = reply.value
        if not isinstance(capture, dict) or "items" not in capture:
            raise ShardError(
                f"retire of [{lo}, {hi}) at {source!r} failed: {capture!r}"
            )
        remaining = max(1.0, deadline - (time.monotonic() - started))
        with LiveClient(
            f"director-m{self._moves}-i",
            target_info.addresses,
            view=target_info.members,
            request_timeout=self.request_timeout,
        ) as install_client:
            installed = install_client.submit(
                "shard_install",
                (lo, hi, version, capture["items"]),
                deadline=remaining,
            )
        if not isinstance(installed.value, dict):
            raise ShardError(
                f"install of [{lo}, {hi}) at {target!r} failed: "
                f"{installed.value!r}"
            )
        self._swap(new_map)
        return new_map

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "ShardDirector":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
