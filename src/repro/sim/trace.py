"""Structured tracing for simulations.

Traces are cheap, append-only records of interesting protocol events
(decisions, epoch changes, crashes, ...). Tests assert on them, the
examples print them, and they are invaluable when debugging distributed
schedules. Tracing is on by default but can be capped or disabled for
long benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.types import Time


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace event."""

    time: Time
    source: str
    category: str
    detail: dict[str, Any]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        fields = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time * 1000.0:10.3f}ms] {self.source:<8} {self.category:<18} {fields}"


#: records a log keeps; later ones are counted in ``dropped``.
TRACE_CAPACITY = 200_000


class TraceLog:
    """Bounded, filterable event log."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._records: list[TraceRecord] = []
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._records)

    def emit(self, time: Time, source: str, category: str, **detail: Any) -> None:
        if not self.enabled:
            return
        if len(self._records) >= TRACE_CAPACITY:
            self.dropped += 1
            return
        self._records.append(TraceRecord(time, source, category, detail))

    def records(
        self, category: str | None = None, source: str | None = None
    ) -> Iterator[TraceRecord]:
        for record in self._records:
            if category is not None and record.category != category:
                continue
            if source is not None and record.source != source:
                continue
            yield record

    def last(self, category: str) -> TraceRecord | None:
        for record in reversed(self._records):
            if record.category == category:
                return record
        return None

    def count(self, category: str) -> int:
        return sum(1 for _ in self.records(category=category))

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0
