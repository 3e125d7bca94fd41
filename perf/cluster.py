"""Bring a benchmark cluster up and observe its processes from outside.

Every cluster is three ``repro serve`` subprocesses on loopback with no
injected message delay (latency is processor and fsync time, not network),
durable storage with fsync on, the binary wire format and a 600 ms
suspicion floor: the 100 ms serve default fires needless elections when
four processes share two cores (``readbench`` uses the same value).

Observation uses only what an operator has: the ``#metrics`` endpoint and
``/proc/<pid>``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.net.cluster import LocalCluster
from repro.net.observe import MetricsSnapshot, poll_cluster

from perf.driver import FixedOps, LoadDriver, key_order, value_for

REPLICAS = 3
SUSPECT_MS = 600.0
LEASE_MS = 400.0
#: leader batching of the batched workloads (the BENCH_commit winners).
BATCH_DELAY_MS = 2.0
BATCH_MAX = 256
ENGINE_WINDOW = 16

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


@dataclass(frozen=True)
class ClusterShape:
    """The server-side settings a workload runs against."""

    batched: bool = False
    #: seconds between periodic checkpoints; 0 leaves only the checkpoints
    #: taken at epoch boundaries.
    checkpoint_s: float = 0.0
    read_mode: str | None = None
    #: address-book names kept free for joiners.
    reserve: int = 0
    #: extra state preloaded under ``state-*`` keys, in bytes.
    state_bytes: int = 0


def launch(shape: ClusterShape, seed: int, work_dir: Path) -> LocalCluster:
    """Spawn the replicas of one benchmark cluster inside ``work_dir``."""
    return LocalCluster(
        replicas=REPLICAS,
        reserve=shape.reserve,
        seed=seed,
        log_dir=work_dir,
        durable=True,
        fsync=True,
        batch_delay_ms=BATCH_DELAY_MS if shape.batched else 0.0,
        batch_max=BATCH_MAX,
        window=ENGINE_WINDOW if shape.batched else 0,
        read_mode=shape.read_mode,
        lease_ms=LEASE_MS if shape.read_mode == "lease" else None,
        suspect_ms=SUSPECT_MS,
        extra_args=["--checkpoint-interval", str(shape.checkpoint_s)],
    )


@contextmanager
def running_cluster(
    shape: ClusterShape, seed: int, out_dir: Path
) -> Iterator[tuple[LocalCluster, float]]:
    """A started, preloaded cluster and the seconds its set-up took.

    Set-up is spawn + ready + preload: what a user waits for before the
    first request of a fresh deployment is served from warm state. The
    cluster lives in a temporary directory under ``out_dir``; it is shut
    down and the directory removed however the block is left.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="cluster-", dir=out_dir))
    started = time.perf_counter()
    cluster = launch(shape, seed, work_dir)
    try:
        cluster.start(timeout=30.0)
        preload(cluster, seed, shape.state_bytes)
        yield cluster, time.perf_counter() - started
    finally:
        cluster.shutdown()
        shutil.rmtree(work_dir, ignore_errors=True)


def preload(cluster: LocalCluster, seed: int, state_bytes: int) -> None:
    """Write every workload key once, plus ``state_bytes`` of ballast."""
    ops = [("set", (key, value_for(0)), 64) for key in key_order(seed)]
    chunk = 8192
    ops += [
        ("set", (f"state-{i}", "x" * chunk), chunk)
        for i in range(state_bytes // chunk)
    ]
    with LoadDriver("perf-load", cluster.addresses, cluster.initial, 64) as driver:
        result = driver.run(FixedOps(ops, 64), None)
    if result.acked != len(ops) or result.violation_count:
        raise RuntimeError(
            f"preload: {result.acked}/{len(ops)} acknowledged, "
            f"{result.violations}"
        )


# -- observation ------------------------------------------------------------


def live_nodes(cluster: LocalCluster) -> list[str]:
    return [name for name, proc in cluster.procs.items() if proc.poll() is None]


def snapshots(cluster: LocalCluster, nodes: list[str]) -> dict[str, MetricsSnapshot]:
    """Each named replica's ``#metrics`` snapshot; all must answer."""
    fetched, errors = poll_cluster(cluster.addresses, nodes, timeout=5.0)
    if errors:
        raise RuntimeError(f"#metrics poll failed: {errors}")
    return {node: f.snapshot for node, f in fetched.items()}


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one process, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def rss_mb(pid: int) -> float:
    resident_pages = int(Path(f"/proc/{pid}/statm").read_text().split()[1])
    return resident_pages * _PAGE_BYTES / 1e6


@dataclass
class Observation:
    """Counters and process accounting of the live replicas at one instant."""

    metrics: dict[str, MetricsSnapshot]
    cpu_s: dict[str, float]
    client_cpu_s: float

    @classmethod
    def take(cls, cluster: LocalCluster) -> "Observation":
        nodes = live_nodes(cluster)
        return cls(
            metrics=snapshots(cluster, nodes),
            cpu_s={n: cpu_seconds(cluster.procs[n].pid) for n in nodes},
            client_cpu_s=time.process_time(),
        )

    def counter(self, node: str, name: str) -> int:
        return int(self.metrics[node].counters.get(name, 0))


def surviving_children() -> list[int]:
    """Pids of live (non-zombie) children of this process."""
    me = str(os.getpid())
    alive = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we were listing
        if fields[1] == me and fields[0] != "Z":
            alive.append(int(entry.name))
    return alive
