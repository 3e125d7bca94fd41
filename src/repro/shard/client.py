"""The smart client: one shard router, driven live and in the simulator.

:class:`ShardRouter` holds the routing rules once and touches no socket,
thread, lock or clock. It caches the :class:`~repro.shard.shardmap.ShardMap`,
routes each key to the owning group, and, given a
:class:`~repro.shard.messages.WrongShard` reply value, says what to do
next: retry now, read the map, or back off. So a map change propagates
to clients through the groups themselves, without a central hop on the
data path; the director is read only when a redirect shows the cache is
missing a move. Hints are adopted only when their map version is
*newer* than the cache, and read maps when they are not older: versions
only move forward, which makes races against in-flight cutovers
convergent.

Two drivers run it. :class:`ShardClient` drives it over one
:class:`~repro.net.client.LiveClient` per group and reads the map
through a director handle
(:class:`~repro.shard.metadir.ReplicatedShardDirector`: ``dir_map`` on
the metadir group's log); the simulator's ``SimShardClient``
(``benchmarks/sim_plans.py``) drives it over one
:class:`~repro.core.client.Requester` per group. A placement ends only
at its deadline: a ping-pong that never advances a version backs off
until then.
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

#: per-attempt request timeout of every group client (seconds).
REQUEST_TIMEOUT = 1.0

#: the router's answers: send again now, read the map first, or wait
#: :attr:`ShardRouter.backoff` and send again.
RETRY, READ, BACKOFF = "retry", "read", "backoff"


class ShardClientError(LiveClientError):
    """A sharded request could not be placed before its deadline."""


class ShardRouter:
    """The map cache and the redirect rules, with no I/O and no clock."""

    #: pause before resending while a cutover is mid-flight (source
    #: retired, target not yet installed, director not yet swapped).
    backoff = 0.05

    def __init__(self, shard_map: ShardMap):
        self.shard_map = shard_map
        #: the version of the last map read whole (the cache holds every
        #: move up to it) and the slices hint patches moved since, each
        #: with its move's version: what the cache knows past it.
        self._read_version = shard_map.version
        self._patched: tuple[tuple[int, int, int], ...] = ()

    def route(self, key: str) -> tuple[str, int]:
        """The (group, hash point) the cached map routes ``key`` to."""
        point = key_point(key)
        return self.shard_map.group_for_point(point), point

    def redirected(self, hint: WrongShard) -> str:
        """The next step after a group answered ``hint``.

        A hint that advances the cache patches it: retry. Otherwise the
        map is read if the hint names a newer map, or if it shows a gap in
        the cache: a hint patch stamps the cache with its own move's
        version but brings in no earlier move, so the cache can name a
        group for a range that group gave away before that version. A
        hint the cache already knows (the rejecting group's old forward,
        kept until its install of the range back runs) and a hint-less
        redirect at or below the cache (the target of a move whose
        install is still in flight, which the director's map cannot move
        past either) back off: a cutover resolves in a couple of commits.
        """
        if self._patch(hint):
            return RETRY
        if hint.version > self.shard_map.version or (
            hint.has_hint and not self._knows(hint)
        ):
            return READ
        return BACKOFF

    def read(self, new_map: ShardMap | None) -> str:
        """The next step after a map read (None: the read failed).

        Retry if the map moved the cache, else back off. A read map
        replaces a cached one of the same version: a hint patch stamps
        the cache with its move's version but leaves out the earlier
        moves it was not told of, and the director's map at that version
        has them all.
        """
        if new_map is None or new_map.version < self.shard_map.version:
            return BACKOFF
        before, self.shard_map = self.shard_map, new_map
        self._read_version = new_map.version
        self._patched = ()
        return BACKOFF if new_map == before else RETRY

    def _patch(self, hint: WrongShard) -> bool:
        """Patch the cached map from a redirect hint; True if it advanced."""
        if not hint.has_hint or hint.version <= self.shard_map.version:
            return False
        try:
            self.shard_map = self.shard_map.with_move(
                hint.lo, hint.hi, hint.target, version=hint.version
            )
        except ShardError:
            # The hinted range no longer lines up with our (older)
            # assignment boundaries; a full read is required.
            return False
        self._patched += ((hint.lo, hint.hi, hint.version),)
        return True

    def _knows(self, hint: WrongShard) -> bool:
        """True if the cache holds a move of the hint's point at or after
        the hint's version: the hint is an old forward, not news."""
        return hint.version <= self._read_version or any(
            lo <= hint.point < hi and hint.version <= version
            for lo, hi, version in self._patched
        )


class ShardClient:
    """Routes keyed commands across live groups through a :class:`ShardRouter`.

    Not thread-safe (nor is :class:`LiveClient`): each thread that
    submits holds a client of its own.
    """

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
        self._clients: dict[str, Any] = {}
        #: set by :meth:`close`; a back-off waits on it.
        self._closed = threading.Event()
        if shard_map is None:
            shard_map = self._read(2.0)
        shard_map.validate()
        self.router = ShardRouter(shard_map)

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
        return self.router.shard_map

    @property
    def map_version(self) -> int:
        return self.shard_map.version

    def refresh_map(self, timeout: float = 2.0) -> ShardMap:
        """Read the map through the director; adopt it unless older.

        ``timeout`` bounds the read; a read that fails (no majority of
        the metadir group, no map yet, an invalid map) raises
        :class:`ShardClientError` and leaves the cache as it was.
        """
        if self.director is not None:
            self.router.read(self._read(timeout))
        return self.shard_map

    def _read(self, timeout: float) -> ShardMap:
        try:
            return self.director.shard_map(deadline=timeout)
        except (LiveClientError, ShardError) as exc:
            raise ShardClientError(f"shard map read failed: {exc}") from exc

    # -- routing ------------------------------------------------------------

    def route(self, key: str) -> tuple[str, int]:
        """The (group, hash point) the cached map routes ``key`` to."""
        return self.router.route(key)

    def _group_client(self, group: str) -> Any:
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

        Routes, calls the group, and does what the router says with a
        :class:`WrongShard` answer, until ``deadline``: a map read gets
        the time left, and a back-off waits the router's interval.
        """
        if not args:
            raise ShardError(f"operation {op!r} has no routing key")
        self.seq += 1
        key = str(args[0])
        give_up_at = time.monotonic() + deadline
        while True:
            group, _ = self.route(key)
            reply = self._group_client(group).submit(
                op, args, size=size, deadline=self._left(give_up_at)
            )
            value = reply.value
            if not isinstance(value, WrongShard):
                return reply
            last = (
                f"{group} does not own {key!r} "
                f"(map v{value.version}, hint {value.target or 'none'})"
            )
            step = self.router.redirected(value)
            if step == READ:
                step = self.router.read(self._try_read(give_up_at))
            if step == BACKOFF:
                self._closed.wait(
                    min(self.router.backoff, give_up_at - time.monotonic())
                )
            if time.monotonic() >= give_up_at:
                raise ShardClientError(
                    f"{op} {key!r} not placed in {deadline}s: {last}"
                )

    def _try_read(self, give_up_at: float) -> ShardMap | None:
        """A map read in the time left; None if there is no director or
        it did not answer (hints must carry us)."""
        if self.director is None:
            return None
        try:
            return self._read(self._left(give_up_at))
        except ShardClientError:
            return None

    @staticmethod
    def _left(give_up_at: float) -> float:
        return max(MIN_ATTEMPT_BUDGET, give_up_at - time.monotonic())

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

        def drive(group: str, client: Any, indexes: list[int]) -> None:
            try:
                result = client.submit_pipelined(
                    [ops[i] for i in indexes], window=window, deadline=deadline
                )
            except LiveClientError as exc:
                failures.append(f"{group}: {exc}")
                return
            for i, latency in zip(indexes, result):
                latencies[i] = latency

        # The group clients are built here, before any thread starts.
        threads = [
            threading.Thread(
                target=drive, args=(group, self._group_client(group), indexes),
                daemon=True,
            )
            for group, indexes in by_group.items()
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
        self._closed.set()
        clients, self._clients = self._clients, {}
        for client in (*clients.values(), self.director):
            close = getattr(client, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "ShardClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
