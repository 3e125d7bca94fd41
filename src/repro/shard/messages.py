"""The shard wire protocol (registered in the codec bootstrap).

Two conversations share these payloads:

* **map fetch** — a client (or the ``repro shard-route`` CLI) asks any
  metadir replica for its copy of the authoritative map:
  :class:`ShardMapRequest` → :class:`ShardMapReply`, addressed to the
  :data:`DIRECTOR_ENDPOINT` name on the replica's ordinary port;
* **redirects** — a group that no longer owns a key answers the normal
  :class:`~repro.core.client.ClientReply` with a :class:`WrongShard`
  *value*. Riding inside the reply keeps the replica protocol untouched:
  the sharded state machine emits it like any other result, the codec
  round-trips it like any registered dataclass, and only the
  :class:`~repro.shard.client.ShardClient` interprets it.

Admin operations (split / move / merge / publish) have no payload here:
they are ordinary replicated commands on the metadir group's log
(``dir_begin`` and friends, :mod:`repro.shard.metadir`).

The request carries a :class:`~repro.types.CommandId` so the reply can
be matched over a shared connection, mirroring the ``#chaos`` and
``#metrics`` admin protocols.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.shard.shardmap import ShardMap
from repro.types import CommandId

#: wire name every metadir replica answers map fetches as.
DIRECTOR_ENDPOINT = "shard-director"


@dataclass(frozen=True, slots=True)
class ShardMapRequest:
    """Client -> director: send me the authoritative shard map."""

    cid: CommandId


@dataclass(frozen=True, slots=True)
class ShardMapReply:
    """Director -> client: the current map (version included within)."""

    cid: CommandId
    shard_map: ShardMap


@dataclass(frozen=True, slots=True)
class WrongShard:
    """Reply *value* from a group that does not own the requested key.

    ``version`` is the map version of the move that took (or will give)
    the range away; ``target`` names the new owner when the rejecting
    group knows it (the retire command records a forwarding hint), or is
    empty when it does not (e.g. the target group before its install
    command executes). ``lo``/``hi`` bound the moved range so a client
    can patch exactly that slice of its cached map without a central
    hop; a zero-width range means "no hint, refresh from the director".
    """

    key: str
    point: int
    version: int
    group: str
    target: str
    lo: int
    hi: int

    @property
    def has_hint(self) -> bool:
        return bool(self.target) and self.hi > self.lo
