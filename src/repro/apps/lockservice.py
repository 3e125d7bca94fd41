"""Replicated lock service (Chubby-flavoured, lease-free).

Operations:

* ``"acquire" (lock, owner)`` — grants if free or already held by owner;
  returns success bool.
* ``"release" (lock, owner)`` — releases if held by owner; returns bool.
* ``"holder" (lock,)`` — returns the current owner or ``None``.

The mutual-exclusion property — between a successful acquire and the
matching release, no other owner's acquire on the same lock succeeds — is
checkable purely from acknowledged replies, giving another cheap
whole-history oracle that stresses reply correctness (not just log
agreement) through reconfigurations.
"""

from __future__ import annotations

from typing import Any

from repro.core.statemachine import StateMachine
from repro.errors import ProtocolError
from repro.types import Command


class LockServiceStateMachine(StateMachine):
    """Deterministic lock table."""

    READ_ONLY_OPS = frozenset({"holder"})

    def __init__(self):
        self._holders: dict[str, str] = {}

    def apply(self, command: Command) -> Any:
        op = command.op
        args = command.args
        if op == "acquire":
            lock, owner = args
            holder = self._holders.get(lock)
            if holder is None or holder == owner:
                self._holders[lock] = owner
                return True
            return False
        if op == "release":
            lock, owner = args
            if self._holders.get(lock) == owner:
                del self._holders[lock]
                return True
            return False
        if op == "holder":
            (lock,) = args
            return self._holders.get(lock)
        raise ProtocolError(f"unknown lock operation {op!r}")

    def snapshot(self) -> Any:
        return dict(self._holders)

    def restore(self, snapshot: Any) -> None:
        self._holders = dict(snapshot)

    def snapshot_bytes(self) -> int:
        return 16 + 48 * len(self._holders)
