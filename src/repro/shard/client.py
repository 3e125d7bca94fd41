"""The smart client: cached shard map + per-group LiveClients.

:class:`ShardClient` is the sharded counterpart of
:class:`~repro.net.client.LiveClient`. It holds a cached
:class:`~repro.shard.shardmap.ShardMap`, routes each keyed command to
the owning group's ``LiveClient``, and repairs its cache from
:class:`~repro.shard.messages.WrongShard` reply values — so a map change
propagates to clients through the groups themselves, without a central
hop on the data path. The director is only consulted to bootstrap the
cache and as the fallback when a redirect carries no usable hint.

Retry discipline mirrors ``LiveClient``: one overall ``deadline`` per
call, every attempt's budget clamped to the
:data:`~repro.net.client.MIN_ATTEMPT_BUDGET` floor, and a **redirect
budget** so a stale ping-pong (A says B, B says A) fails crisply instead
of looping. Redirect hints are only ever adopted when their map version
is *newer* than the cache, which is what makes concurrent refreshes and
races against in-flight cutovers convergent: versions only move forward.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from typing import Any, Callable, Iterable

from repro.core.client import ClientReply
from repro.net import codec
from repro.net.client import (
    MIN_ATTEMPT_BUDGET,
    LiveClient,
    LiveClientError,
    request_reply,
)
from repro.shard.messages import (
    DIRECTOR_ENDPOINT,
    ShardMapReply,
    ShardMapRequest,
    WrongShard,
)
from repro.shard.shardmap import GroupInfo, ShardError, ShardMap, key_point
from repro.types import ClientId, CommandId, NodeId

#: pause between retries while a cutover is mid-flight (source retired,
#: target not yet installed, director not yet swapped).
REDIRECT_BACKOFF = 0.05

#: map-fetch retry backoff: base of the exponential ramp and its cap.
#: Same discipline as LiveClient's request loop — a director that is
#: briefly down (restarting, failing over) costs a few retries, not an
#: immediate error bubbled into a request that the cached map could
#: have served.
MAP_RETRY_BASE = 0.05
MAP_RETRY_CAP = 0.4
#: rounds a one-endpoint fetch (:func:`fetch_shard_map`) makes at most.
FETCH_ATTEMPTS = 3

#: per-attempt request timeout of every group client (seconds).
REQUEST_TIMEOUT = 1.0
#: WrongShard redirects one :meth:`ShardClient.submit` follows at most.
MAX_REDIRECTS = 12


class ShardClientError(LiveClientError):
    """A sharded request could not be completed (deadline or redirect loop)."""


def fetch_shard_map(
    address: tuple[str, int], *, timeout: float = 2.0
) -> ShardMap:
    """Fetch the authoritative map from one endpoint, retrying with
    jittered backoff; ``timeout`` bounds the whole call."""
    return _fetch_with_retry(
        [address], sender="shard-cli", seq=1, timeout=timeout,
        rng=random.Random(), rounds=FETCH_ATTEMPTS,
    )


def _fetch_with_retry(
    endpoints: list[tuple[str, int]],
    *,
    sender: str,
    seq: int,
    timeout: float,
    rng: random.Random,
    rounds: int | None = None,
) -> ShardMap:
    """The one map-fetch retry loop: each round tries every endpoint in
    order, and a round that fails backs off exponentially with jitter (so
    a fleet of clients re-fetching after a director restart does not
    stampede in lockstep) before the next. ``timeout`` bounds the whole
    call, ``rounds`` (None = until the timeout) the number of rounds. An
    attempt may take ``timeout / rounds`` (half the timeout when rounds
    are unbounded), at least 0.1 s.
    """
    give_up_at = time.monotonic() + timeout
    per_attempt = max(0.1, timeout / (rounds or 2))
    last: Exception | None = None
    for round_no in itertools.count() if rounds is None else range(rounds):
        for address in endpoints:
            remaining = give_up_at - time.monotonic()
            if remaining <= 0:
                break
            try:
                return _fetch_map(
                    address, sender=sender, seq=seq,
                    timeout=min(per_attempt, remaining),
                )
            except ShardClientError as exc:
                last = exc
        if round_no + 1 == rounds:
            break
        pause = min(MAP_RETRY_CAP, MAP_RETRY_BASE * (2 ** round_no))
        pause *= 0.5 + rng.random()  # jitter in [0.5x, 1.5x)
        if time.monotonic() + pause >= give_up_at:
            break
        time.sleep(pause)
    raise ShardClientError(
        f"shard map fetch from {len(endpoints)} endpoint(s) failed after "
        f"retries: {last}"
    ) from last


def _fetch_map(
    address: tuple[str, int],
    *,
    sender: str = "shard-cli",
    seq: int = 1,
    timeout: float = 2.0,
) -> ShardMap:
    """One map fetch from one director endpoint (no retry).

    Whatever is wrong with the answer — no connection, no reply, bytes
    that do not decode, a map that is not a partition, a reply carrying
    something other than a map — is this endpoint's failure, so callers
    rotating over several endpoints move on to the next.
    """
    request = ShardMapRequest(CommandId(ClientId(sender), seq))
    try:
        shard_map = request_reply(
            address, NodeId(sender), NodeId(DIRECTOR_ENDPOINT), request,
            ShardMapReply, timeout,
        ).shard_map
        if not isinstance(shard_map, ShardMap):
            raise ShardError(
                f"reply carries a {type(shard_map).__name__}, not a map"
            )
        shard_map.validate()
    except (OSError, codec.CodecError, ShardError) as exc:
        raise ShardClientError(
            f"shard map fetch from {address} failed: {exc}"
        ) from exc
    return shard_map


class ShardClient:
    """Routes keyed commands across groups through a cached shard map."""

    def __init__(
        self,
        name: str,
        *,
        director: tuple[str, int] | list[tuple[str, int]] | None = None,
        shard_map: ShardMap | None = None,
        client_factory: Callable[[GroupInfo], Any] | None = None,
    ):
        if shard_map is None and director is None:
            raise ShardError("need a director address or an initial shard map")
        self.name = str(name)
        #: recording identity (unique cids for history recorders); the
        #: wire identity is per-group ("<name>@<group>", and one lane
        #: "<name>@<group>/<k>" per pipelined command in flight) so each
        #: group's dedup table sees one command at a time per identity.
        self.client = ClientId(self.name)
        self.seq = 0
        #: one or more director endpoints. Every metadir replica answers
        #: map fetches, so a fetch fails over across them (rotated so a
        #: dead replica costs one attempt, not the whole refresh).
        self.directors: list[tuple[str, int]] = (
            [] if director is None
            else [director] if isinstance(director, tuple)
            else list(director)
        )
        self._rng = random.Random(self.name)
        self._factory = client_factory or self._default_factory
        self._lock = threading.RLock()
        self._clients: dict[str, Any] = {}
        self._fetches = 0
        if shard_map is None:
            shard_map = self.refresh_map()
        else:
            shard_map.validate()
        with self._lock:
            if self._cached_map is None or shard_map.version > self._cached_map.version:
                self._cached_map = shard_map

    _cached_map: ShardMap | None = None

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
        """Re-fetch from a director; adopt only if strictly newer.

        Safe to call from several threads at once: each fetch happens
        outside the lock, and adoption compares versions under it — a
        slow fetch returning an older map can never clobber a newer one.
        Endpoints are tried in rotation with jittered backoff between
        full rounds, so one dead director replica degrades a refresh to
        a failover, not a failure.
        """
        if not self.directors:
            return self.shard_map
        with self._lock:
            self._fetches += 1
            seq = self._fetches
            # Rotate the contact order per refresh so a permanently-dead
            # first endpoint is not re-probed first by every caller.
            offset = seq % len(self.directors)
            endpoints = self.directors[offset:] + self.directors[:offset]
        return self._adopt(_fetch_with_retry(
            endpoints, sender=f"{self.name}-map", seq=seq, timeout=timeout,
            rng=self._rng,
        ))

    def _adopt(self, new_map: ShardMap) -> ShardMap:
        with self._lock:
            if (
                self._cached_map is None
                or new_map.version > self._cached_map.version
            ):
                self._cached_map = new_map
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
            return True

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
        ``deadline``; hints that do not advance the cached map fall back
        to a director refresh, then a short backoff (an in-flight
        cutover resolves in a couple of commits).
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
            before = self.map_version
            try:
                self.refresh_map()
            except ShardClientError:
                pass  # director unreachable; hints must carry us
            if self.map_version == before:
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
        for client in clients.values():
            close = getattr(client, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "ShardClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
