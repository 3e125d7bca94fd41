"""Unified observability: counters, gauges, histograms, and trace spans.

One :class:`MetricsRegistry` lives on each runtime (the discrete-event
:class:`repro.sim.runner.Simulator` and the wall-clock
:class:`repro.net.runtime.LiveRuntime` both create one at construction),
so the *same* instrumentation in the replica, the consensus engine and
the transport feeds both backends. Protocol code reaches the registry
through :func:`metrics_of`, which tolerates runtimes that predate it.

Three instrument kinds, all cheap enough for the commit path:

* :class:`Counter` — a monotonically increasing integer (``inc``);
* :class:`Gauge` — a point-in-time value (``set``), optionally filled
  lazily at snapshot time via :meth:`MetricsRegistry.on_snapshot`;
* :class:`Histogram` — a bounded reservoir holding the newest
  ``capacity`` samples; summaries reuse the nearest-rank
  :func:`repro.metrics.stats.percentile` so live tables and simulated
  tables agree on their definition of p99.

On top of the scalar instruments, the registry records **span events**:
timestamped ``(kind, span id, phase)`` triples assembled into spans. The
one span kind the protocol emits today is the reconfiguration seam
(:data:`SPAN_RECONFIG`): ``decided`` (the ReconfigCommand entered the
effective log) → ``cut`` (the epoch sealed) → ``transfer`` (the boundary
state became available to the new epoch) → ``first-commit`` (the new
instance executed its first entry). A span carrying all four phases is
*complete* and its ``first-commit - decided`` width is the hand-off
latency the paper sells.

:meth:`MetricsRegistry.snapshot` renders everything into plain
containers (str/int/float/dict/tuple) so the result can cross the wire
unchanged inside a :class:`repro.net.admin.MetricsSnapshot`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.metrics.stats import percentile
from repro.types import Time

#: span kind for the reconfiguration seam (epoch hand-off).
SPAN_RECONFIG = "reconfig"

#: span kind for durable checkpoints (begin → written → retired).
SPAN_CHECKPOINT = "checkpoint"

#: span kind for boot-time crash recovery (begin → replayed → rejoined).
SPAN_RECOVERY = "recovery"

#: phases of a reconfiguration span, in causal order. A span is complete
#: when every phase has been recorded.
RECONFIG_PHASES = ("decided", "cut", "transfer", "first-commit")

#: phases that close a reconfiguration span. ``first-commit`` closes it
#: normally; ``aborted`` closes a span the replica knows it will never
#: finish (e.g. the execution frontier jumped over the epoch, so its
#: first local commit cannot happen). A span carrying neither is *open*
#: — in flight if the hand-off is live, dangling if it never ends.
RECONFIG_TERMINAL_PHASES = ("first-commit", "aborted")


#: samples a histogram's reservoir keeps (the newest win).
HISTOGRAM_CAPACITY = 1024
#: span events a registry keeps (the newest win).
EVENT_CAPACITY = 4096


class Counter:
    """Monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Bounded reservoir of the newest ``capacity`` samples.

    The reservoir is a ring: once full, each new sample overwrites the
    oldest — a sliding window, which is what a live ``repro top`` poll
    wants to see (recent behaviour, not the whole run's history).
    ``count`` keeps the all-time total so the window and the lifetime
    volume are both visible.
    """

    __slots__ = ("name", "capacity", "count", "total", "peak", "_reservoir", "_next")

    def __init__(self, name: str, capacity: int = HISTOGRAM_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"histogram capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.peak = 0.0
        self._reservoir: list[float] = []
        self._next = 0

    def record(self, sample: float) -> None:
        sample = float(sample)
        self.count += 1
        self.total += sample
        if self.count == 1 or sample > self.peak:
            self.peak = sample
        if len(self._reservoir) < self.capacity:
            self._reservoir.append(sample)
        else:
            self._reservoir[self._next] = sample
            self._next = (self._next + 1) % self.capacity

    @property
    def reservoir(self) -> list[float]:
        """The retained samples (at most ``capacity``; arbitrary order)."""
        return list(self._reservoir)

    def summary(self) -> dict[str, float]:
        """Percentile summary over the reservoir; zeros when empty.

        Mirrors :func:`repro.metrics.stats.summarize_latencies`'s empty
        behaviour (a zero summary) rather than :func:`percentile`'s
        (raise): a freshly started replica must answer ``#metrics``.
        """
        if not self._reservoir:
            return {"count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0, "max": 0.0}
        window = self._reservoir
        return {
            "count": float(self.count),
            "mean": sum(window) / len(window),
            "p50": percentile(window, 50),
            "p95": percentile(window, 95),
            "p99": percentile(window, 99),
            "max": self.peak,
        }


@dataclass(frozen=True, slots=True)
class SpanEvent:
    """One timestamped phase of one span."""

    kind: str
    span_id: str
    phase: str
    at: Time


class MetricsRegistry:
    """Shared instrument store for one runtime (sim or live)."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: assembled spans: (kind, id) -> {phase: time of first occurrence}.
        self._spans: dict[tuple[str, str], dict[str, Time]] = {}
        #: raw event stream, newest-last, bounded.
        self.events: deque[SpanEvent] = deque(maxlen=EVENT_CAPACITY)
        self._snapshot_hooks: list[Callable[["MetricsRegistry"], None]] = []

    # -- instruments --------------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- spans --------------------------------------------------------------

    def span_event(self, kind: str, span_id: Any, phase: str, at: Time) -> None:
        """Record one phase of a span; the first timestamp per phase wins.

        First-wins matters: ``first-commit`` fires on every commit in the
        new epoch, and retransmitted boundary snapshots could re-mark
        ``transfer`` — the span must keep the earliest occurrence.
        """
        key = (kind, str(span_id))
        phases = self._spans.setdefault(key, {})
        if phase in phases:
            return
        phases[phase] = at
        self.events.append(SpanEvent(kind, str(span_id), phase, at))

    def spans(self, kind: str | None = None) -> dict[str, dict[str, Time]]:
        """Assembled spans as ``"kind/id" -> {phase: time}`` (copies)."""
        return {
            f"{k}/{span_id}": dict(phases)
            for (k, span_id), phases in self._spans.items()
            if kind is None or k == kind
        }

    def open_spans(
        self,
        kind: str,
        terminal: tuple[str, ...] = RECONFIG_TERMINAL_PHASES,
    ) -> dict[str, dict[str, Time]]:
        """Spans of ``kind`` with no terminal phase yet (copies).

        An entry here is either a hand-off still in flight or — if it
        stays here forever — a dangling span the emitter forgot to close.
        """
        return {
            span_id: dict(phases)
            for (k, span_id), phases in self._spans.items()
            if k == kind and not any(phase in phases for phase in terminal)
        }

    def abandon_span(
        self,
        kind: str,
        span_id: Any,
        at: Time,
        terminal: tuple[str, ...] = RECONFIG_TERMINAL_PHASES,
    ) -> bool:
        """Close an open span with an ``aborted`` phase.

        Only touches spans that exist and are still open: a span that
        never started is not invented, and one that already reached a
        terminal phase is left alone (so an abort racing the normal
        completion cannot relabel a finished hand-off). Returns whether
        the span was marked.
        """
        phases = self._spans.get((kind, str(span_id)))
        if phases is None or any(phase in phases for phase in terminal):
            return False
        self.span_event(kind, span_id, "aborted", at)
        return True

    # -- snapshots ----------------------------------------------------------

    def on_snapshot(self, hook: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run at snapshot time (lazy gauges)."""
        self._snapshot_hooks.append(hook)

    def snapshot(self) -> dict[str, Any]:
        """Everything, as plain wire-encodable containers."""
        for hook in self._snapshot_hooks:
            hook(self)
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
            "spans": self.spans(),
        }


def metrics_of(runtime: Any) -> MetricsRegistry:
    """The runtime's registry, installing one if its host predates this.

    Both shipped runtimes create ``self.metrics`` in their constructor;
    the lazy path keeps hand-rolled test runtimes working unchanged.
    """
    registry = getattr(runtime, "metrics", None)
    if not isinstance(registry, MetricsRegistry):
        registry = MetricsRegistry()
        try:
            runtime.metrics = registry
        except (AttributeError, TypeError):  # pragma: no cover - frozen host
            pass
    return registry


def reconfig_span_complete(phases: dict[str, Time]) -> bool:
    """True when a reconfiguration span carries every phase."""
    return all(phase in phases for phase in RECONFIG_PHASES)


def reconfig_span_closed(phases: dict[str, Time]) -> bool:
    """True when a reconfiguration span reached a terminal phase."""
    return any(phase in phases for phase in RECONFIG_TERMINAL_PHASES)


def span_width(phases: dict[str, Time]) -> float | None:
    """``first-commit - decided`` of a complete span (hand-off latency)."""
    if not reconfig_span_complete(phases):
        return None
    return phases["first-commit"] - phases["decided"]
