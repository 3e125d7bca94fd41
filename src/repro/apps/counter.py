"""Replicated named counters.

Operations:

* ``"incr" (name, delta)`` — add ``delta``; returns the new value.
* ``"read" (name,)`` — returns the current value (0 if absent).
* ``"reset" (name,)`` — sets to 0; returns the previous value.

The whole-history invariant is trivial to state — the final value of each
counter equals the sum of acknowledged deltas — which makes counters the
cheapest exactly-once probe in the test suite: any lost or double-applied
increment shows up as an arithmetic mismatch.
"""

from __future__ import annotations

from typing import Any

from repro.core.statemachine import StateMachine
from repro.errors import ProtocolError
from repro.types import Command


class CounterStateMachine(StateMachine):
    """Deterministic counter table."""

    READ_ONLY_OPS = frozenset({"read"})

    def __init__(self):
        self._counters: dict[str, int] = {}

    def value(self, name: str) -> int:
        return self._counters.get(name, 0)

    def apply(self, command: Command) -> Any:
        op = command.op
        args = command.args
        if op == "incr":
            name, delta = args
            self._counters[name] = self._counters.get(name, 0) + delta
            return self._counters[name]
        if op == "read":
            (name,) = args
            return self._counters.get(name, 0)
        if op == "reset":
            (name,) = args
            return self._counters.pop(name, 0)
        raise ProtocolError(f"unknown counter operation {op!r}")

    def snapshot(self) -> Any:
        return dict(self._counters)

    def restore(self, snapshot: Any) -> None:
        self._counters = dict(snapshot)

    def snapshot_bytes(self) -> int:
        return 16 + 32 * len(self._counters)
