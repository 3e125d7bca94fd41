"""Application state machine interface and exactly-once wrapper.

The replication layer executes the virtual log against a deterministic
:class:`StateMachine`. Snapshots are plain Python values (deep-copied when
captured) so they can travel through the simulated network as state
transfer payloads; ``snapshot_bytes`` gives the transfer-cost model its
size.

:class:`DedupStateMachine` wraps any state machine with per-client
duplicate suppression. Commands can legitimately reach the log twice —
clients retry over crashes, and the composition re-proposes orphans into
the next epoch — so exactly-once *execution* is enforced here, at apply
time: a command whose ``(client, seq)`` was already applied returns its
cached reply and leaves the state untouched. The dedup table is part of
the snapshot, which is what keeps exactly-once working across epoch
boundaries and joining replicas.
"""

from __future__ import annotations

import abc
from typing import Any

from repro.types import ClientId, Command


class StateMachine(abc.ABC):
    """Deterministic application logic replicated by the service."""

    #: operations that only read state: the ones a replica may serve
    #: from local state under ``read_mode="lease"`` or ``"follower"``.
    READ_ONLY_OPS: frozenset[str] = frozenset()

    @abc.abstractmethod
    def apply(self, command: Command) -> Any:
        """Execute ``command``, mutate state, and return the reply value."""

    @abc.abstractmethod
    def snapshot(self) -> Any:
        """Capture the full state as a self-contained value."""

    @abc.abstractmethod
    def restore(self, snapshot: Any) -> None:
        """Replace the state with a previously captured snapshot."""

    @abc.abstractmethod
    def snapshot_bytes(self) -> int:
        """Approximate serialized size of the current state, in bytes."""


class DedupStateMachine(StateMachine):
    """Exactly-once execution wrapper around an inner state machine.

    The rule: each :class:`ClientId` issues seqs in increasing order with
    **at most one outstanding command**; a seq below the last applied one
    is a stale duplicate, answered ``None`` and not applied. Every client
    keeps it through ``core.client.ClientCore``, which gives each command
    in flight a lane identity of its own: the simulated ``Client`` (one
    lane closed loop, many open loop), ``LiveClient`` and, through it,
    ``ShardClient`` (``verify.invariants.check_client_order`` checks
    it). Replies are
    cached per client for the *latest* sequence number only, which bounds
    the table at one entry per client.
    """

    def __init__(self, inner: StateMachine):
        self.inner = inner
        # client -> (last applied seq, cached reply)
        self._applied: dict[ClientId, tuple[int, Any]] = {}
        self.duplicates_suppressed = 0

    def apply(self, command: Command) -> Any:
        client = command.cid.client
        seq = command.cid.seq
        last = self._applied.get(client)
        if last is not None:
            last_seq, last_reply = last
            if seq == last_seq:
                self.duplicates_suppressed += 1
                return last_reply
            if seq < last_seq:
                # Stale duplicate from long ago; its reply is gone, but the
                # client must have moved on, so nobody is waiting for it.
                self.duplicates_suppressed += 1
                return None
        try:
            reply = self.inner.apply(command)
        except Exception as exc:  # noqa: BLE001
            # A malformed command (unknown op, wrong arg arity) must not
            # wedge the log: it is already *decided*, so every replica will
            # execute it. Raising here would poison the execution pointer
            # at this slot on every replica — one bad client request could
            # halt the whole live service. Applying to identical state
            # raises identically everywhere, so turning the error into the
            # reply value keeps replicas deterministic.
            reply = f"error: {type(exc).__name__}: {exc}"
        self._applied[client] = (seq, reply)
        return reply

    def snapshot(self) -> Any:
        return {"inner": self.inner.snapshot(), "applied": dict(self._applied)}

    def restore(self, snapshot: Any) -> None:
        self.inner.restore(snapshot["inner"])
        self._applied = dict(snapshot["applied"])

    def snapshot_bytes(self) -> int:
        return self.inner.snapshot_bytes() + 32 * len(self._applied)

    def has_applied(self, client: ClientId, seq: int) -> bool:
        last = self._applied.get(client)
        return last is not None and seq <= last[0]

    def cached_reply(self, client: ClientId, seq: int) -> Any:
        last = self._applied.get(client)
        if last is not None and last[0] == seq:
            return last[1]
        return None
