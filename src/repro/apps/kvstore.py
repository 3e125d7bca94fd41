"""Replicated key/value store.

Operations (``Command.op`` / ``args``):

* ``"get" (key,)`` — returns the value or ``None``.
* ``"set" (key, value)`` — stores; returns ``"ok"``.
* ``"delete" (key,)`` — removes; returns whether the key existed.
* ``"cas" (key, expected, new)`` — compare-and-swap; returns success bool.
* ``"scan" (prefix,)`` — returns a sorted tuple of matching keys (read-heavy
  workloads use it as the "long read" operation).

This is the primary experiment workload: histories of get/set/cas are what
the linearizability checker in :mod:`repro.verify` consumes, and the store
size drives the state-transfer cost model (``value_bytes`` per entry).
"""

from __future__ import annotations

from typing import Any

from repro.core.statemachine import StateMachine
from repro.errors import ProtocolError
from repro.types import Command


class KvStateMachine(StateMachine):
    """Deterministic in-memory KV store."""

    READ_ONLY_OPS = frozenset({"get", "scan"})

    def __init__(self, value_bytes: int = 64):
        self._data: dict[str, Any] = {}
        self.value_bytes = value_bytes
        self.applied_count = 0

    def __len__(self) -> int:
        return len(self._data)

    def apply(self, command: Command) -> Any:
        self.applied_count += 1
        op = command.op
        args = command.args
        if op == "get":
            (key,) = args
            return self._data.get(key)
        if op == "set":
            key, value = args
            self._data[key] = value
            return "ok"
        if op == "delete":
            (key,) = args
            return self._data.pop(key, None) is not None
        if op == "cas":
            key, expected, new = args
            if self._data.get(key) == expected:
                self._data[key] = new
                return True
            return False
        if op == "scan":
            (prefix,) = args
            return tuple(sorted(k for k in self._data if k.startswith(prefix)))
        raise ProtocolError(f"unknown kv operation {op!r}")

    def snapshot(self) -> Any:
        return dict(self._data)

    def restore(self, snapshot: Any) -> None:
        self._data = dict(snapshot)

    def snapshot_bytes(self) -> int:
        # Keys are short; the configured per-entry value size dominates.
        return 16 + (self.value_bytes + 24) * len(self._data)

    def preload(self, entries: int, value: Any = "x") -> None:
        """Fill the store directly (experiment setup, pre-replication)."""
        for i in range(entries):
            self._data[f"pre{i}"] = value
