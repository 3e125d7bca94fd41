"""The smart client: cached shard map + per-group LiveClients.

:class:`ShardClient` is the sharded counterpart of
:class:`~repro.net.client.LiveClient`. It holds a cached
:class:`~repro.shard.shardmap.ShardMap`, routes each keyed command to
the owning group's ``LiveClient``, and repairs its cache from
:class:`~repro.shard.messages.WrongShard` reply values — so a map change
propagates to clients through the groups themselves, without a central
hop on the data path. The director is only read to bootstrap the cache
and as the fallback when a redirect's hint does not advance the cache
(a hint-less redirect only when it names a map newer than the cache).
It is read through a handle
(:class:`~repro.shard.metadir.ReplicatedShardDirector`: ``dir_map`` on
the metadir group's log), so a read is linearizable and fails over
across the group's replicas like any other command.

Retry discipline mirrors ``LiveClient``: one overall ``deadline`` per
call, every attempt's budget clamped to the
:data:`~repro.net.client.MIN_ATTEMPT_BUDGET` floor, and a **redirect
budget** so a stale ping-pong (A says B, B says A) fails crisply instead
of looping. Redirect hints are only ever adopted when their map version
is *newer* than the cache, and read maps when it is not older, which is
what makes concurrent refreshes and races against in-flight cutovers
convergent: versions only move forward.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.core.client import ClientReply
from repro.net.client import MIN_ATTEMPT_BUDGET, LiveClient, LiveClientError
from repro.shard.messages import WrongShard
from repro.shard.shardmap import GroupInfo, ShardError, ShardMap, key_point
from repro.types import ClientId

#: pause between retries while a cutover is mid-flight (source retired,
#: target not yet installed, director not yet swapped).
REDIRECT_BACKOFF = 0.05

#: per-attempt request timeout of every group client (seconds).
REQUEST_TIMEOUT = 1.0
#: WrongShard redirects one :meth:`ShardClient.submit` follows at most.
MAX_REDIRECTS = 12


class ShardClientError(LiveClientError):
    """A sharded request could not be completed (deadline or redirect loop)."""


class ShardClient:
    """Routes keyed commands across groups through a cached shard map."""

    def __init__(
        self,
        name: str,
        *,
        director: Any = None,
        shard_map: ShardMap | None = None,
        client_factory: Callable[[GroupInfo], Any] | None = None,
    ):
        if shard_map is None and director is None:
            raise ShardError("need a director handle or an initial shard map")
        self.name = str(name)
        #: recording identity (unique cids for history recorders); the
        #: wire identity is per-group ("<name>@<group>", and one lane
        #: "<name>@<group>/<k>" per pipelined command in flight) so each
        #: group's dedup table sees one command at a time per identity.
        self.client = ClientId(self.name)
        self.seq = 0
        #: the map reader: ``shard_map(deadline)`` and ``close()``, as
        #: :class:`~repro.shard.metadir.ReplicatedShardDirector` has.
        #: Closed with this client.
        self.director = director
        self._factory = client_factory or self._default_factory
        self._lock = threading.RLock()
        self._clients: dict[str, Any] = {}
        if shard_map is None:
            self.refresh_map()
        else:
            shard_map.validate()
            self._adopt(shard_map)

    _cached_map: ShardMap | None = None
    #: the version of the last map read whole (the cache holds every move
    #: up to it) and the slices hint patches moved since, each with its
    #: move's version: what the cache knows past ``_read_version``.
    _read_version = 0
    _patched: tuple[tuple[int, int, int], ...] = ()

    def _default_factory(self, info: GroupInfo) -> LiveClient:
        return LiveClient(
            f"{self.name}@{info.name}",
            info.addresses,
            view=info.members,
            request_timeout=REQUEST_TIMEOUT,
        )

    # -- map cache ----------------------------------------------------------

    @property
    def shard_map(self) -> ShardMap:
        with self._lock:
            assert self._cached_map is not None
            return self._cached_map

    @property
    def map_version(self) -> int:
        return self.shard_map.version

    def refresh_map(self, timeout: float = 2.0) -> ShardMap:
        """Read the map through the director; adopt it unless older.

        Safe to call from several threads at once: each read happens
        outside the lock, and adoption compares versions under it — a
        slow read returning an older map can never clobber a newer one.
        ``timeout`` bounds the read; a read that fails (no majority of
        the metadir group, no map yet, an invalid map) raises
        :class:`ShardClientError` and leaves the cache as it was.
        """
        if self.director is None:
            return self.shard_map
        try:
            new_map = self.director.shard_map(deadline=timeout)
        except (LiveClientError, ShardError) as exc:
            raise ShardClientError(f"shard map read failed: {exc}") from exc
        return self._adopt(new_map)

    def _adopt(self, new_map: ShardMap) -> ShardMap:
        """Cache ``new_map`` unless the cache is newer.

        A read map replaces a cached one of the same version: a hint
        patch stamps the cache with its move's version but leaves out
        the earlier moves it was not told of, and the director's map at
        that version has them all.
        """
        with self._lock:
            if (
                self._cached_map is None
                or new_map.version >= self._cached_map.version
            ):
                self._cached_map = new_map
                self._read_version = new_map.version
                self._patched = ()
            return self._cached_map

    def _apply_hint(self, hint: WrongShard) -> bool:
        """Patch the cached map from a redirect hint; True if it advanced."""
        with self._lock:
            current = self._cached_map
            assert current is not None
            if not hint.has_hint or hint.version <= current.version:
                return False
            try:
                patched = current.with_move(
                    hint.lo, hint.hi, hint.target, version=hint.version
                )
            except ShardError:
                # The hinted range no longer lines up with our (older)
                # assignment boundaries; a full refresh is required.
                return False
            self._cached_map = patched
            self._patched += ((hint.lo, hint.hi, hint.version),)
            return True

    def _knows(self, hint: WrongShard) -> bool:
        """True if the cache holds a move of the hint's point at or after
        the hint's version: the hint is an old forward, not news."""
        with self._lock:
            return hint.version <= self._read_version or any(
                lo <= hint.point < hi and hint.version <= version
                for lo, hi, version in self._patched
            )

    # -- routing ------------------------------------------------------------

    def route(self, key: str) -> tuple[str, int]:
        """The (group, hash point) the cached map routes ``key`` to."""
        point = key_point(key)
        return self.shard_map.group_for_point(point), point

    def _group_client(self, group: str) -> Any:
        with self._lock:
            client = self._clients.get(group)
            if client is None:
                client = self._factory(self.shard_map.group_info(group))
                self._clients[group] = client
            return client

    # -- requests -----------------------------------------------------------

    def submit(
        self,
        op: str,
        args: tuple[Any, ...] = (),
        size: int = 64,
        deadline: float = 15.0,
    ) -> ClientReply:
        """Execute one keyed command on whichever group owns its key.

        Follows WrongShard redirects up to :data:`MAX_REDIRECTS` times within
        ``deadline``. A hint that does not advance the cached map falls
        back to a director read unless the cache already holds a later
        move of that point (the rejecting group's old forward, kept until
        its install of the range back runs). Otherwise the hint shows a
        gap in the cache: a hint patch stamps the cache with its own
        move's version but brings in no earlier move, so the cache can
        name a group for a range that group gave away before that
        version. A redirect with no hint falls back only if it names a
        newer map than the cache;
        otherwise the rejecting group knows no newer map than we do (the
        target of a move whose install is still in flight, which the
        director's map cannot move past either), so the client just
        backs off briefly (an in-flight cutover resolves in a couple of
        commits).
        """
        if not args:
            raise ShardError(f"operation {op!r} has no routing key")
        with self._lock:
            self.seq += 1
        key = str(args[0])
        give_up_at = time.monotonic() + deadline
        redirects = 0
        last = "no attempt made"
        while True:
            group, _ = self.route(key)
            budget = max(MIN_ATTEMPT_BUDGET, give_up_at - time.monotonic())
            reply = self._group_client(group).submit(
                op, args, size=size, deadline=budget
            )
            value = reply.value
            if not isinstance(value, WrongShard):
                return reply
            redirects += 1
            last = (
                f"{group} does not own {key!r} "
                f"(map v{value.version}, hint {value.target or 'none'})"
            )
            if redirects > MAX_REDIRECTS:
                raise ShardClientError(
                    f"redirect budget exhausted after {redirects - 1} "
                    f"redirects for {op} {key!r}: {last}"
                )
            if time.monotonic() >= give_up_at:
                raise ShardClientError(
                    f"{op} {key!r} not placed in {deadline}s: {last}"
                )
            if self._apply_hint(value):
                continue
            before = self.shard_map
            if value.version > before.version or (
                value.has_hint and not self._knows(value)
            ):
                try:
                    self.refresh_map()
                except ShardClientError:
                    pass  # director unreachable; hints must carry us
            if self.shard_map == before:
                # Mid-cutover: neither the hint nor the director moved
                # us forward yet. Give the install a moment to land.
                time.sleep(REDIRECT_BACKOFF)

    def scan(self, prefix: str, deadline: float = 15.0) -> tuple[str, ...]:
        """Fan a ``scan`` out to every serving group and merge the keys."""
        give_up_at = time.monotonic() + deadline
        merged: set[str] = set()
        for group in self.shard_map.serving_groups():
            budget = max(MIN_ATTEMPT_BUDGET, give_up_at - time.monotonic())
            reply = self._group_client(group).submit(
                "scan", (prefix,), size=32, deadline=budget
            )
            if isinstance(reply.value, (tuple, list)):
                merged.update(reply.value)
        return tuple(sorted(merged))

    def submit_pipelined(
        self,
        ops: list[tuple[str, tuple[Any, ...], int]],
        window: int = 32,
        deadline: float = 60.0,
    ) -> list[float]:
        """Partition ``ops`` by owning group and pipeline each partition.

        One thread per group drives that group's
        :meth:`LiveClient.submit_pipelined` (lanes ``<name>@<group>/<k>``),
        so N groups commit in parallel — the aggregate-throughput path
        the shard bench measures. Returns per-op latencies in submission
        order. Assumes a stable map for the batch (redirect values are not
        inspected on this path); use :meth:`submit` when a move may be in
        flight.
        """
        shard_map = self.shard_map
        by_group: dict[str, list[int]] = {}
        for index, (op, args, _size) in enumerate(ops):
            if not args:
                raise ShardError(f"operation {op!r} has no routing key")
            by_group.setdefault(
                shard_map.group_for_key(str(args[0])), []
            ).append(index)
        latencies = [0.0] * len(ops)
        failures: list[str] = []

        def drive(group: str, indexes: list[int]) -> None:
            client = self._group_client(group)
            try:
                result = client.submit_pipelined(
                    [ops[i] for i in indexes], window=window, deadline=deadline
                )
            except LiveClientError as exc:
                failures.append(f"{group}: {exc}")
                return
            for i, latency in zip(indexes, result):
                latencies[i] = latency

        threads = [
            threading.Thread(target=drive, args=item, daemon=True)
            for item in by_group.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=deadline + 5.0)
        if failures:
            raise ShardClientError(
                "pipelined groups failed: " + "; ".join(sorted(failures))
            )
        return latencies

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            clients, self._clients = dict(self._clients), {}
        for client in (*clients.values(), self.director):
            close = getattr(client, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "ShardClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
