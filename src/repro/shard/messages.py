"""The shard wire payload (registered in the codec bootstrap).

A group that no longer owns a key answers the normal
:class:`~repro.core.client.ClientReply` with a :class:`WrongShard`
*value*. Riding inside the reply keeps the replica protocol untouched:
the sharded state machine emits it like any other result, the codec
round-trips it like any registered dataclass, and only the
:class:`~repro.shard.client.ShardClient` interprets it.

Nothing else about sharding has a payload of its own. Map reads and
admin operations (split / move / merge / publish) are ordinary
replicated commands on the metadir group's log (``dir_map``,
``dir_begin`` and friends, :mod:`repro.shard.metadir`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class WrongShard:
    """Reply *value* from a group that does not own the requested key.

    ``version`` is the map version of the move that took (or will give)
    the range away; ``target`` names the new owner when the rejecting
    group knows it (the retire command records a forwarding hint), or is
    empty when it does not (e.g. the target group before its install
    command executes). ``lo``/``hi`` bound the moved range so a client
    can patch exactly that slice of its cached map without a central
    hop; a zero-width range means "no hint".
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
