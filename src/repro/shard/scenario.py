"""Split-under-load: elastic scale-out verified with the Wing–Gong oracle.

The canonical sharded scenario (EXPERIMENTS T13): start a sharded
cluster with one spare group, drive a concurrent KV workload through
:class:`~repro.shard.client.ShardClient`\\ s while the director splits
the busiest group's range into the spare — a full drain-and-cutover
under fire — then feed every client-observed operation into the
linearizability checker. The verdict covers the cutover window: any op
that read stale data from a retired range, or wrote into one, would
produce a non-linearizable per-key history.

It predates the storm loop (:func:`repro.net.storm.run_storm_scenario`,
which runs every live fault scenario) and keeps its own small report
object with ``lines()`` / ``ok`` for the shard benchmark and the live
tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.net.chaos import HistoryRecorder
from repro.shard.cluster import ShardedCluster
from repro.shard.shardmap import ShardMap
from repro.verify.histories import History
from repro.verify.linearizability import (
    LinearizabilityResult,
    check_kv_linearizable,
)


@dataclass
class ShardScenarioReport:
    """Everything the split-under-load run observed, plus the verdict."""

    groups: int
    clients: int
    elapsed: float = 0.0
    version_before: int = 0
    version_after: int = 0
    moved: tuple[int, int, str] | None = None
    ops_total: int = 0
    ops_pending: int = 0
    spread_before: dict[str, int] = field(default_factory=dict)
    spread_after: dict[str, int] = field(default_factory=dict)
    linearizable: LinearizabilityResult | None = None
    history: History = field(default_factory=lambda: History([]))
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.errors
            and self.linearizable is not None
            and self.linearizable.ok
            and self.version_after > self.version_before
        )

    def lines(self) -> list[str]:
        out = [
            f"split-under-load: {self.groups} serving groups + 1 spare, "
            f"{self.clients} concurrent clients ({self.elapsed:.1f}s)",
            f"map: v{self.version_before} -> v{self.version_after}"
            + (
                f" (moved [{self.moved[0]}, {self.moved[1]}) "
                f"to {self.moved[2]})"
                if self.moved
                else " (NO MOVE)"
            ),
            f"keys per group before: {self.spread_before}",
            f"keys per group after:  {self.spread_after}",
            f"history: {self.ops_total - self.ops_pending} completed + "
            f"{self.ops_pending} pending operations across the cutover",
        ]
        if self.linearizable is not None:
            verdict = (
                "LINEARIZABLE"
                if self.linearizable.ok
                else f"NOT LINEARIZABLE (key {self.linearizable.failing_key!r})"
            )
            out.append(
                f"verdict: {verdict} ({self.linearizable.checked_ops} ops "
                f"over {self.linearizable.checked_keys} keys)"
            )
        for error in self.errors:
            out.append(f"  note: {error}")
        return out


def run_split_scenario(
    groups: int = 3,
    replicas_per_group: int = 3,
    clients: int = 2,
    keys: int = 24,
    seed: int = 42,
    settle: float = 0.5,
    verbose: bool = False,
) -> ShardScenarioReport:
    """Run the split-under-load scenario and return its report."""
    report = ShardScenarioReport(groups=groups, clients=clients)
    started = time.monotonic()
    key_names = [f"key-{i:03d}" for i in range(keys)]
    with ShardedCluster(
        groups,
        replicas_per_group=replicas_per_group,
        spare_groups=1,
        seed=seed,
        verbose=verbose,
    ) as cluster:
        cluster.start()
        spare = cluster.spares[0]
        shard_map = cluster.shard_map
        report.version_before = shard_map.version
        report.spread_before = shard_map.spread(key_names)
        # The group owning the most keys is the one worth splitting.
        source = max(
            report.spread_before, key=lambda g: (report.spread_before[g], g)
        )

        recorders: list[HistoryRecorder] = []
        #: one timebase for every recorder — the merged history's
        #: real-time order is only meaningful on a shared clock.
        t0 = time.monotonic()
        # The preload is recorded too: without it the first observed get
        # would return a value the checker never saw written.
        with cluster.client("loader") as loader:
            preload = HistoryRecorder(loader, t0=t0)
            recorders.append(preload)
            for i, key in enumerate(key_names):
                preload.submit("set", (key, f"v0-{i}"))
        stop = threading.Event()
        failures: list[str] = []

        def worker(index: int) -> None:
            client = cluster.client(f"w{index}")
            recorder = HistoryRecorder(client, t0=t0)
            recorders.append(recorder)
            try:
                round_no = 0
                while not stop.is_set():
                    key = key_names[(round_no * clients + index) % keys]
                    if round_no % 3 == 2:
                        recorder.submit("get", (key,), size=32, deadline=10.0)
                    else:
                        recorder.submit(
                            "set", (key, f"w{index}-{round_no}"), deadline=10.0
                        )
                    round_no += 1
            finally:
                client.close()

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        time.sleep(settle)  # load before the move
        try:
            new_map = cluster.split(source, target=spare)
            moved = new_map.ranges_of(spare)
            report.moved = (moved[0].lo, moved[0].hi, spare)
        except Exception as exc:  # noqa: BLE001 - verdict, not crash
            failures.append(f"split failed: {type(exc).__name__}: {exc}")
        time.sleep(settle)  # load after the move
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)

        final_map = cluster.shard_map
        report.version_after = final_map.version
        report.spread_after = final_map.spread(key_names)
        # Post-cutover read-back through a fresh client (fresh map): every
        # key must still be readable wherever it now lives.
        with cluster.client("checker") as checker:
            for key in key_names:
                try:
                    checker.submit("get", (key,), size=32, deadline=10.0)
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"post-move read of {key!r}: {exc}")
                    break

        operations = [
            op for recorder in recorders for op in recorder.operations
        ]
        report.history = History(operations)
        report.ops_total = len(operations)
        report.ops_pending = len(report.history.pending)
        report.linearizable = check_kv_linearizable(report.history)
        report.errors.extend(failures)
    report.elapsed = time.monotonic() - started
    return report
