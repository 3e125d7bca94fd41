"""In-memory spans around the benchmark's own calls into ``repro``.

A span is (name, start, end, parent, op): ``parent`` is the index of the
span that caused it (-1 for a root) and ``op`` the index of the first
operation the call served, so the spans of one request share an
identifier. Spans are kept in flat lists while the run measures and are
written out once, at the end. A disabled tracer records nothing, so the
load drivers have one code path for traced and untraced runs.

Spans inside the replicas are a later issue; these only see what the load
generator does around each public call.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable

#: raw spans kept in a written trace file; the self-time table above them
#: always covers every span recorded.
WRITE_LIMIT = 20_000


class Tracer:
    """Records spans; ``begin`` returns a handle for ``end`` and children."""

    def __init__(
        self, enabled: bool = True, clock: Callable[[], float] = time.perf_counter
    ):
        self.enabled = enabled
        self._clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []

    def begin(self, name: str, parent: int = -1, op: int = -1) -> int:
        if not self.enabled:
            return -1
        self.names.append(name)
        self.parents.append(parent)
        self.ops.append(op)
        self.ends.append(0.0)
        self.starts.append(self._clock())
        return len(self.names) - 1

    def end(self, span: int) -> None:
        if span >= 0:
            self.ends[span] = self._clock()

    def __len__(self) -> int:
        return len(self.names)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name.

        A span's self time is its duration minus the part of that interval
        its child spans cover. The drivers are single-threaded, so the
        children of one span never overlap and their durations add up.
        """
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                start = max(self.starts[i], self.starts[parent])
                end = min(self.ends[i], self.ends[parent])
                covered[parent] += max(0.0, end - start)
        totals: dict[str, float] = {}
        for i, name in enumerate(self.names):
            own = max(0.0, self.ends[i] - self.starts[i] - covered[i])
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def self_fractions(self) -> dict[str, float]:
        """Each name's share of all self time (shares sum to 1)."""
        totals = self.self_times()
        whole = sum(totals.values())
        return {name: t / whole for name, t in totals.items()} if whole else {}

    def write(self, path: Path) -> None:
        """Write the self-time table and the first ``WRITE_LIMIT`` spans."""
        origin = self.starts[0] if self.starts else 0.0
        shown = min(len(self.names), WRITE_LIMIT)
        document = {
            "spans_recorded": len(self.names),
            "spans_written": shown,
            "self_time_s": self.self_times(),
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [
                    self.names[i],
                    self.starts[i] - origin,
                    self.ends[i] - origin,
                    self.parents[i],
                    self.ops[i],
                ]
                for i in range(shown)
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document), encoding="utf-8")
