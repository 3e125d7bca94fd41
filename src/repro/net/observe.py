"""Live-cluster observability: the poller side of the ``#metrics`` endpoint.

Each ``repro serve`` process registers a **metrics endpoint**
(``<node>#metrics``, :mod:`repro.net.admin`) on its transport, mirroring
the ``#chaos`` pattern: a :class:`~repro.net.admin.MetricsRequest` frame
gets back one :class:`~repro.net.admin.MetricsSnapshot` carrying the
replica's whole :class:`~repro.metrics.registry.MetricsRegistry` —
counters, gauges, histogram summaries, and reconfiguration spans — plus
the replica's local clock, which lets a poller align span timestamps from
different replicas onto its own timeline (see :class:`FetchedSnapshot`).

Unlike ``#chaos`` every replica serves the endpoint: it is read-only
and mutates nothing, so exposing it carries none of the fault-injection
risk that keeps the chaos endpoint behind an opt-in flag. A serving
replica imports only :mod:`repro.net.admin`, never this module.

:func:`fetch_metrics` is the client side (one raw socket, request/reply,
same frame loop as :meth:`ChaosController._push`); :func:`poll_cluster`
fans it out over an address book, :func:`poll_groups` over the groups of
a sharded service. ``repro metrics`` and ``repro top`` render what they
fetch; the storm loop (:mod:`repro.net.storm`) folds the same snapshots
into its report, whose ``chaos`` cell is the live acceptance check that
a reconfiguration shows per-epoch commit counts and a complete decided →
cut → transfer → first-commit span.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import ReproError
from repro.metrics.registry import (
    RECONFIG_PHASES,
    SPAN_RECONFIG,
    span_width,
)
from repro.metrics.report import Table
from repro.net import codec
from repro.net.admin import MetricsRequest, MetricsSnapshot, metrics_endpoint
from repro.net.client import request_reply
from repro.types import ClientId, CommandId, NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.transport import Address

#: counter-name prefix of the per-epoch commit counters (suffix = epoch).
EPOCH_COMMITS_PREFIX = "smr.commits.epoch."


class MetricsFetchError(ReproError):
    """A ``#metrics`` request got no snapshot back in time."""


# ---------------------------------------------------------------------------
# Client side: fetch + clock alignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FetchedSnapshot:
    """A snapshot plus the local monotonic instant it was received.

    Replica clocks all start at their own process start, so raw span
    times from two replicas are not comparable. ``replica_t0``
    reconstructs the replica's clock origin on the *poller's* monotonic
    timeline (fetch instant minus the replica's reported ``now``, so it
    overshoots by the reply's flight time — well under the schedule
    granularity chaos timelines care about). ``local_time`` then maps
    any replica-clock timestamp in the snapshot onto the poller's
    timeline, which is what lets the chaos report align spans from
    different replicas against its injection log.
    """

    snapshot: MetricsSnapshot
    fetched_at: float

    @property
    def replica_t0(self) -> float:
        return self.fetched_at - self.snapshot.now

    def local_time(self, replica_time: float) -> float:
        return self.replica_t0 + replica_time


def fetch_metrics(
    address: "Address",
    replica: str,
    *,
    sender: str = "metrics-cli",
    seq: int = 1,
    timeout: float = 2.0,
) -> FetchedSnapshot:
    """Fetch one replica's snapshot over a raw socket; blocking.

    Raises :class:`MetricsFetchError` if the replica is unreachable or
    does not answer within ``timeout``.
    """
    request = MetricsRequest(CommandId(ClientId(sender), seq))
    try:
        snapshot = request_reply(
            address, NodeId(sender), metrics_endpoint(replica), request,
            MetricsSnapshot, timeout,
        )
    except (OSError, codec.CodecError) as exc:
        raise MetricsFetchError(f"{replica}: metrics fetch failed: {exc}") from exc
    return FetchedSnapshot(snapshot, time.monotonic())


def poll_cluster(
    addresses: dict[str, "Address"],
    replicas: Iterable[str] | None = None,
    *,
    timeout: float = 2.0,
) -> tuple[dict[str, FetchedSnapshot], list[str]]:
    """Fetch snapshots from every named replica; tolerate the unreachable.

    Returns ``(snapshots by node, error strings)`` — a dead replica
    becomes an error line, not an exception, because a poller's whole
    point is observing clusters that are partially down.
    """
    targets = list(replicas) if replicas is not None else sorted(addresses)
    snapshots: dict[str, FetchedSnapshot] = {}
    errors: list[str] = []
    for i, name in enumerate(targets):
        try:
            snapshots[name] = fetch_metrics(
                addresses[name], name, seq=i + 1, timeout=timeout
            )
        except MetricsFetchError as exc:
            errors.append(str(exc))
    return snapshots, errors


def poll_groups(
    groups: dict[str, dict[str, "Address"]],
    *,
    timeout: float = 2.0,
) -> tuple[dict[str, dict[str, FetchedSnapshot]], list[str]]:
    """Poll several clusters' endpoints in one call (per-shard snapshots).

    ``groups`` maps a group label to that group's address book; each
    group is polled on its own thread so one slow shard does not stretch
    the whole poll, and the result keeps the per-group structure that
    :func:`group_commit_totals` / :func:`render_group_snapshots`
    aggregate. Error strings are prefixed with the group label.
    """
    import threading

    fetched: dict[str, dict[str, FetchedSnapshot]] = {}
    errors: list[str] = []
    lock = threading.Lock()

    def poll_one(label: str, addresses: dict[str, "Address"]) -> None:
        snapshots, group_errors = poll_cluster(addresses, timeout=timeout)
        with lock:
            fetched[label] = snapshots
            errors.extend(f"{label}: {error}" for error in group_errors)

    threads = [
        threading.Thread(target=poll_one, args=item, daemon=True)
        for item in groups.items()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout + 5.0)
    return fetched, errors


# ---------------------------------------------------------------------------
# Snapshot digestion + rendering
# ---------------------------------------------------------------------------


def epoch_commit_counts(snapshot: MetricsSnapshot) -> dict[int, int]:
    """Per-epoch commit counts from the snapshot's counters."""
    counts: dict[int, int] = {}
    for name, value in snapshot.counters.items():
        if name.startswith(EPOCH_COMMITS_PREFIX):
            try:
                counts[int(name[len(EPOCH_COMMITS_PREFIX):])] = int(value)
            except ValueError:  # pragma: no cover - foreign counter name
                continue
    return counts


def reconfig_spans(snapshot: MetricsSnapshot) -> dict[str, dict[str, float]]:
    """The snapshot's reconfiguration spans, keyed by new-epoch id."""
    prefix = f"{SPAN_RECONFIG}/"
    return {
        key[len(prefix):]: phases
        for key, phases in snapshot.spans.items()
        if key.startswith(prefix)
    }


def snapshot_tables(snapshots: dict[str, MetricsSnapshot]) -> list[Table]:
    """Render fetched snapshots as paper-style tables (one set per poll).

    Counters and gauges go into one wide table with a column per replica
    so cross-replica skew (a lagging follower, a partitioned node) is
    visible at a glance; histograms and spans get per-metric rows.
    """
    nodes = sorted(snapshots)
    tables: list[Table] = []

    names: list[str] = sorted({n for s in snapshots.values() for n in s.counters})
    counters = Table("counters", ["counter", *nodes])
    for name in names:
        counters.add_row(
            name, *(snapshots[node].counters.get(name, 0) for node in nodes)
        )
    tables.append(counters)

    gauge_names = sorted({n for s in snapshots.values() for n in s.gauges})
    if gauge_names:
        gauges = Table("gauges", ["gauge", *nodes])
        for name in gauge_names:
            gauges.add_row(
                name,
                *(f"{snapshots[node].gauges.get(name, 0.0):.3f}" for node in nodes),
            )
        tables.append(gauges)

    histograms = Table(
        "histograms",
        ["histogram", "node", "count", "mean", "p50", "p95", "p99", "max"],
    )
    hist_rows = 0
    for node in nodes:
        for name, summary in sorted(snapshots[node].histograms.items()):
            if not summary.get("count"):
                continue
            hist_rows += 1
            histograms.add_row(
                name, node, int(summary["count"]),
                f"{summary['mean'] * 1e3:.2f}ms", f"{summary['p50'] * 1e3:.2f}ms",
                f"{summary['p95'] * 1e3:.2f}ms", f"{summary['p99'] * 1e3:.2f}ms",
                f"{summary['max'] * 1e3:.2f}ms",
            )
    if hist_rows:
        tables.append(histograms)

    spans = Table(
        "reconfiguration spans",
        ["node", "epoch", *RECONFIG_PHASES, "width"],
    )
    span_rows = 0
    for node in nodes:
        for epoch, phases in sorted(reconfig_spans(snapshots[node]).items()):
            span_rows += 1
            width = span_width(phases)
            spans.add_row(
                node, epoch,
                *(
                    f"{phases[p]:.3f}" if p in phases else "-"
                    for p in RECONFIG_PHASES
                ),
                f"{width * 1e3:.1f}ms" if width is not None else "incomplete",
            )
    if span_rows:
        tables.append(spans)
    return tables


def render_snapshots(snapshots: dict[str, MetricsSnapshot]) -> str:
    return "\n\n".join(table.render() for table in snapshot_tables(snapshots))


def group_commit_totals(
    fetched: dict[str, dict[str, FetchedSnapshot]],
) -> dict[str, int]:
    """Committed ops per group: the most-caught-up replica's total.

    Every replica of a group applies the same virtual log, so the *max*
    across its replicas (not the sum) is the group's committed-op count;
    summing across **groups** is then meaningful — it is the sharded
    service's aggregate work.
    """
    totals: dict[str, int] = {}
    for label, snapshots in fetched.items():
        totals[label] = max(
            (
                sum(epoch_commit_counts(f.snapshot).values())
                for f in snapshots.values()
            ),
            default=0,
        )
    return totals


def group_summary_table(
    fetched: dict[str, dict[str, FetchedSnapshot]],
) -> Table:
    """One row per group: replicas polled, commits, epochs in use."""
    totals = group_commit_totals(fetched)
    table = Table("shard groups", ["group", "replicas", "commits", "epochs"])
    for label in sorted(fetched):
        snapshots = fetched[label]
        epochs: set[int] = set()
        for f in snapshots.values():
            epochs.update(
                e for e, c in epoch_commit_counts(f.snapshot).items() if c
            )
        table.add_row(
            label, len(snapshots), totals[label],
            ",".join(str(e) for e in sorted(epochs)) or "-",
        )
    table.add_row("total", sum(len(s) for s in fetched.values()),
                  sum(totals.values()), "")
    return table


def render_group_snapshots(
    fetched: dict[str, dict[str, FetchedSnapshot]],
) -> str:
    """The aggregate summary table followed by each group's full tables."""
    parts = [group_summary_table(fetched).render()]
    for label in sorted(fetched):
        snapshots = {n: f.snapshot for n, f in fetched[label].items()}
        if snapshots:
            parts.append(f"=== group {label} ===\n"
                         + render_snapshots(snapshots))
    return "\n\n".join(parts)
