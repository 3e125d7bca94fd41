"""Shard-aware KV store: ownership enforcement inside the replicated log.

:class:`ShardedKvStateMachine` wraps the plain
:class:`~repro.apps.kvstore.KvStateMachine` with a notion of which hash
ranges this *group* currently owns. The crucial property: ownership
changes are themselves **replicated commands** (``shard_retire`` /
``shard_install``), so within one group they are totally ordered against
every read and write in the group's virtual log. That single fact is the
whole cutover safety argument:

* every op on a key that serializes *before* the retire command executes
  normally against the old owner;
* the retire command atomically stops service for the range **and**
  captures its items — there is no drain window to reason about, the
  log position of the retire *is* the drain;
* every later op on the range gets a :class:`~repro.shard.messages.WrongShard`
  reply value carrying a forwarding hint, and never mutates state;
* the install command at the target group atomically starts service for
  the range with exactly the captured items.

Because the director only installs after the retire's reply returns, the
install strictly follows the retire in real time, so per-key histories
across the two groups remain linearizable (verified live by the
``shard`` cell of ``repro storm`` with the Wing–Gong oracle).

Shard state (owned ranges, forwarding hints, map version) is part of the
snapshot, so it survives group-internal reconfigurations, state transfer
to joiners, and durable recovery — a replica can never "forget" that a
range moved away, which is the amnesia that would break the argument.
"""

from __future__ import annotations

from typing import Any

from repro.apps.kvstore import KvStateMachine
from repro.core.statemachine import StateMachine
from repro.errors import ProtocolError
from repro.shard.messages import WrongShard
from repro.shard.shardmap import HASH_SPACE, key_point
from repro.types import Command

#: KV operations whose first argument is the routing key.
KEYED_OPS = ("get", "set", "delete", "cas")

#: administrative operations understood by the sharded wrapper.
SHARD_OPS = ("shard_retire", "shard_install", "shard_info")


class ShardedKvStateMachine(StateMachine):
    """A KV store that serves only the hash ranges its group owns."""

    READ_ONLY_OPS = KvStateMachine.READ_ONLY_OPS

    def __init__(
        self,
        group: str = "g0",
        owned: tuple[tuple[int, int], ...] = ((0, HASH_SPACE),),
        version: int = 1,
        value_bytes: int = 64,
    ):
        self.inner = KvStateMachine(value_bytes)
        self.group = str(group)
        self.version = int(version)
        #: sorted, disjoint (lo, hi) ranges this group currently serves.
        self.owned: tuple[tuple[int, int], ...] = tuple(sorted(owned))
        #: retired ranges -> (target group, map version of the move);
        #: the source of WrongShard forwarding hints.
        self.forwards: dict[tuple[int, int], tuple[str, int]] = {}

    # -- apply --------------------------------------------------------------

    def apply(self, command: Command) -> Any:
        op, args = command.op, command.args
        if op == "shard_retire":
            return self._retire(*args)
        if op == "shard_install":
            return self._install(*args)
        if op == "shard_info":
            return self._info()
        if op in KEYED_OPS:
            key = str(args[0])
            point = key_point(key)
            if not self._owns(point):
                return self._wrong_shard(key, point)
        # Owned keys, scans, and unknown ops all go to the inner store
        # (which raises ProtocolError for genuinely unknown operations).
        return self.inner.apply(command)

    def _owns(self, point: int) -> bool:
        for lo, hi in self.owned:
            if lo <= point < hi:
                return True
        return False

    def _wrong_shard(self, key: str, point: int) -> WrongShard:
        for (lo, hi), (target, version) in self.forwards.items():
            if lo <= point < hi:
                return WrongShard(key, point, version, self.group, target, lo, hi)
        # No hint: either this group never owned the point (stale client
        # map) or it is the target of a move whose install has not
        # executed yet. Zero-width range = "ask the director".
        return WrongShard(key, point, self.version, self.group, "", 0, 0)

    # -- ownership transfer -------------------------------------------------

    def _retire(self, lo: int, hi: int, version: int, target: str) -> Any:
        """Stop serving ``[lo, hi)``; capture and evict its items.

        The reply value carries the captured items: the director relays
        them to the target group's install command. Replies are cached by
        the dedup wrapper, so a retried retire returns the same capture
        instead of finding an already-emptied range.
        """
        lo, hi, version = int(lo), int(hi), int(version)
        self._carve(lo, hi)
        self.forwards[(lo, hi)] = (str(target), version)
        self.version = max(self.version, version)
        snapshot = self.inner.snapshot()
        moved = {k: v for k, v in snapshot.items() if lo <= key_point(k) < hi}
        if moved:
            self.inner.restore(
                {k: v for k, v in snapshot.items() if k not in moved}
            )
        return {"items": moved, "version": version, "count": len(moved)}

    def _carve(self, lo: int, hi: int) -> None:
        """Remove ``[lo, hi)`` from the owned set (must be a sub-range)."""
        for i, (own_lo, own_hi) in enumerate(self.owned):
            if own_lo <= lo and hi <= own_hi:
                keep = list(self.owned[:i])
                if own_lo < lo:
                    keep.append((own_lo, lo))
                if hi < own_hi:
                    keep.append((hi, own_hi))
                keep.extend(self.owned[i + 1:])
                self.owned = tuple(sorted(keep))
                return
        raise ProtocolError(
            f"group {self.group!r} does not own [{lo}, {hi}) "
            f"(owned: {list(self.owned)})"
        )

    def _install(self, lo: int, hi: int, version: int, items: Any) -> Any:
        """Start serving ``[lo, hi)`` with the items captured at retire."""
        lo, hi, version = int(lo), int(hi), int(version)
        table = dict(items) if items else {}
        merged = list(self.owned) + [(lo, hi)]
        merged.sort()
        coalesced: list[tuple[int, int]] = []
        for rng in merged:
            if coalesced and coalesced[-1][1] >= rng[0]:
                coalesced[-1] = (
                    coalesced[-1][0], max(coalesced[-1][1], rng[1])
                )
            else:
                coalesced.append(rng)
        self.owned = tuple(coalesced)
        self.forwards.pop((lo, hi), None)
        self.version = max(self.version, version)
        if table:
            self.inner.restore(self.inner.snapshot() | table)
        return {"installed": len(table), "version": version}

    def _info(self) -> Any:
        return {
            "group": self.group,
            "version": self.version,
            "owned": [list(r) for r in self.owned],
            "forwards": [
                [lo, hi, target, version]
                for (lo, hi), (target, version) in sorted(self.forwards.items())
            ],
            "keys": len(self.inner),
        }

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> Any:
        return {
            "inner": self.inner.snapshot(),
            "shard": {
                "group": self.group,
                "version": self.version,
                "owned": tuple(self.owned),
                "forwards": dict(self.forwards),
            },
        }

    def restore(self, snapshot: Any) -> None:
        self.inner.restore(snapshot["inner"])
        shard = snapshot["shard"]
        self.group = shard["group"]
        self.version = int(shard["version"])
        self.owned = tuple(
            (int(lo), int(hi)) for lo, hi in sorted(shard["owned"])
        )
        self.forwards = {
            (int(lo), int(hi)): (str(target), int(version))
            for (lo, hi), (target, version) in shard["forwards"].items()
        }

    def snapshot_bytes(self) -> int:
        return self.inner.snapshot_bytes() + 64 + 24 * (
            len(self.owned) + len(self.forwards)
        )
