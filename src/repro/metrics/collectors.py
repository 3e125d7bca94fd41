"""Measurement collectors wired into clients and replicas.

:class:`CompletionCollector` hooks client ``on_complete`` callbacks — the
service-level signal used for throughput/latency in every experiment.
:class:`CommitCollector` hooks a replica's commit listener — the
replica-level signal used for ordering-vs-execution comparisons (it can
see speculative commits the client has not been told about yet).
"""

from __future__ import annotations

from typing import Any

from repro.core.client import OpRecord
from repro.metrics.stats import LatencySummary, Timeline, longest_gap, summarize_latencies
from repro.types import EpochId, Time


class CompletionCollector:
    """Aggregates client-side operation completions."""

    def __init__(self, bin_width: float = 0.05):
        self.timeline = Timeline(bin_width)
        self.latencies: list[float] = []
        self.completion_times: list[Time] = []
        self.retries = 0

    def on_complete(self, record: OpRecord) -> None:
        latency = record.returned_at - record.invoked_at
        self.latencies.append(latency)
        self.completion_times.append(record.returned_at)
        self.retries += record.retries
        self.timeline.record(record.returned_at)

    @property
    def count(self) -> int:
        return len(self.latencies)

    def latency_summary(self) -> LatencySummary:
        return summarize_latencies(self.latencies)

    def completed_between(self, start: Time, end: Time) -> int:
        return sum(1 for t in self.completion_times if start <= t <= end)

    def throughput(self, start: Time, end: Time) -> float:
        duration = end - start
        return self.completed_between(start, end) / duration if duration > 0 else 0.0

    def unavailability(self, start: Time, end: Time) -> float:
        return longest_gap(self.completion_times, start, end)

    def latencies_between(self, start: Time, end: Time) -> list[float]:
        return [
            latency
            for latency, t in zip(self.latencies, self.completion_times)
            if start <= t <= end
        ]


class CommitCollector:
    """Aggregates replica-side commits (execution of the virtual log)."""

    def __init__(self, bin_width: float = 0.05):
        self.timeline = Timeline(bin_width)
        self.commit_times: list[Time] = []
        self.epochs: list[EpochId] = []
        self.count = 0

    def listener(
        self, time: Time, payload: Any, epoch: EpochId, vindex: int, value: Any
    ) -> None:
        self.count += 1
        self.commit_times.append(time)
        self.epochs.append(epoch)
        self.timeline.record(time)

    def unavailability(self, start: Time, end: Time) -> float:
        return longest_gap(self.commit_times, start, end)

    def first_commit_in_epoch(self, epoch: EpochId) -> Time | None:
        for t, e in zip(self.commit_times, self.epochs):
            if e == epoch:
                return t
        return None
