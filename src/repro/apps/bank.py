"""Replicated bank: accounts with transfers.

Operations:

* ``"open" (account, balance)`` — create an account; returns ``"ok"`` or
  ``"exists"``.
* ``"deposit" (account, amount)`` — returns the new balance, or ``None``
  for an unknown account.
* ``"withdraw" (account, amount)`` — refuses overdrafts; returns the new
  balance or ``None``.
* ``"transfer" (src, dst, amount)`` — atomic move; returns success bool.
* ``"balance" (account,)`` — returns the balance or ``None``.
* ``"total" ()`` — sum of all balances.

The conservation invariant — total money changes only by acknowledged
opens/deposits/withdrawals, never by transfers — holds across any mix of
crashes, retries and reconfigurations, making the bank the strongest
application-level oracle for the failure-injection tests.
"""

from __future__ import annotations

from typing import Any

from repro.core.statemachine import StateMachine
from repro.errors import ProtocolError
from repro.types import Command


class BankStateMachine(StateMachine):
    """Deterministic account table with atomic transfers."""

    READ_ONLY_OPS = frozenset({"balance", "total"})

    def __init__(self):
        self._accounts: dict[str, int] = {}

    def total(self) -> int:
        return sum(self._accounts.values())

    def apply(self, command: Command) -> Any:
        op = command.op
        args = command.args
        if op == "open":
            account, balance = args
            if account in self._accounts:
                return "exists"
            self._accounts[account] = balance
            return "ok"
        if op == "deposit":
            account, amount = args
            if account not in self._accounts:
                return None
            self._accounts[account] += amount
            return self._accounts[account]
        if op == "withdraw":
            account, amount = args
            balance = self._accounts.get(account)
            if balance is None or balance < amount:
                return None
            self._accounts[account] = balance - amount
            return self._accounts[account]
        if op == "transfer":
            src, dst, amount = args
            if (
                src not in self._accounts
                or dst not in self._accounts
                or self._accounts[src] < amount
            ):
                return False
            self._accounts[src] -= amount
            self._accounts[dst] += amount
            return True
        if op == "balance":
            (account,) = args
            return self._accounts.get(account)
        if op == "total":
            return self.total()
        raise ProtocolError(f"unknown bank operation {op!r}")

    def snapshot(self) -> Any:
        return dict(self._accounts)

    def restore(self, snapshot: Any) -> None:
        self._accounts = dict(snapshot)

    def snapshot_bytes(self) -> int:
        return 16 + 40 * len(self._accounts)
