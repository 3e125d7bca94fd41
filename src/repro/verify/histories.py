"""Client-observed operation histories.

A history is the external, service-level record of a run: invocations and
responses as the *clients* saw them. This is the right granularity for
linearizability — internals (epochs, retries, re-proposals) are invisible
here, exactly as they should be invisible to correctness.

Pending operations (invoked but never acknowledged, e.g., the client's last
command when the run ended) matter: they *may or may not* have taken
effect, and the checker must consider both possibilities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.core.client import Client
from repro.errors import HistoryError
from repro.types import ClientId, CommandId, Time


@dataclass(frozen=True, slots=True)
class Operation:
    """One client operation, completed or pending."""

    cid: CommandId
    op: str
    args: tuple
    invoked_at: Time
    #: None for pending operations (no response observed).
    returned_at: Time | None
    value: Any

    @property
    def pending(self) -> bool:
        return self.returned_at is None

    def key(self) -> str | None:
        """The KV key this operation touches, if it is a KV operation."""
        if self.op in ("get", "set", "delete", "cas") and self.args:
            return str(self.args[0])
        return None


class History:
    """An ordered collection of client operations from one run."""

    def __init__(self, operations: Iterable[Operation]):
        self.operations = sorted(operations, key=lambda o: (o.invoked_at, str(o.cid)))
        self._validate()

    def _validate(self) -> None:
        seen: set[CommandId] = set()
        for op in self.operations:
            if op.cid in seen:
                raise HistoryError(f"duplicate operation record for {op.cid}")
            seen.add(op.cid)
            if op.returned_at is not None and op.returned_at < op.invoked_at:
                raise HistoryError(f"operation {op.cid} returned before invocation")

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    @property
    def completed(self) -> list[Operation]:
        return [op for op in self.operations if not op.pending]

    @property
    def pending(self) -> list[Operation]:
        return [op for op in self.operations if op.pending]

    def by_key(self) -> dict[str, list[Operation]]:
        """Partition KV operations per key (keys are independent objects)."""
        partitions: dict[str, list[Operation]] = {}
        for op in self.operations:
            key = op.key()
            if key is not None:
                partitions.setdefault(key, []).append(op)
        return partitions

    @classmethod
    def from_clients(cls, clients: Iterable[Client], include_pending: bool = True) -> "History":
        """Assemble the run's history from client-side records."""
        operations: list[Operation] = []
        for client in clients:
            for record in client.records:
                operations.append(
                    Operation(
                        cid=record.cid,
                        op=record.op,
                        args=record.args,
                        invoked_at=record.invoked_at,
                        returned_at=record.returned_at,
                        value=record.value,
                    )
                )
            if include_pending:
                # Every command still on a lane may or may not have applied.
                for entry in client.core.outstanding.values():
                    command = entry.command
                    operations.append(
                        Operation(
                            cid=command.cid,
                            op=command.op,
                            args=command.args,
                            invoked_at=entry.invoked_at,
                            returned_at=None,
                            value=None,
                        )
                    )
        return cls(operations)


def dump_jsonl(history: History, path: str | Path) -> None:
    """Write a history as JSON lines (one operation per line).

    Live scenario runs (``repro storm --history``) persist their recorded
    histories this way, so a failing run's evidence survives the run and
    can be re-checked offline with :func:`load_jsonl` +
    :func:`repro.verify.linearizability.check_kv_linearizable`.
    """
    with open(path, "w", encoding="utf-8") as out:
        for op in history:
            out.write(json.dumps({
                "client": str(op.cid.client),
                "seq": op.cid.seq,
                "op": op.op,
                "args": list(op.args),
                "invoked_at": op.invoked_at,
                "returned_at": op.returned_at,
                "value": op.value,
            }, separators=(",", ":")) + "\n")


def load_jsonl(path: str | Path) -> History:
    """Load a history written by :func:`dump_jsonl`."""
    operations: list[Operation] = []
    with open(path, "r", encoding="utf-8") as source:
        for line in source:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            operations.append(
                Operation(
                    cid=CommandId(ClientId(record["client"]), record["seq"]),
                    op=record["op"],
                    args=tuple(record["args"]),
                    invoked_at=record["invoked_at"],
                    returned_at=record["returned_at"],
                    value=record["value"],
                )
            )
    return History(operations)
