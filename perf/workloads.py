"""The five workloads and how one run of each is measured.

A run sets a cluster up (several times, when set-up time is being
reported), warms it, measures for the requested seconds, observes the
replicas through ``#metrics`` and ``/proc`` on either side of the measured
stretch, and then checks that what the cluster holds is what the
acknowledgements promised. With ``trace`` the measured stretch is split in
alternating slices on the same cluster, every second one with spans
recorded, so the difference between the two kinds is the tracing overhead.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.metrics.stats import longest_gap, percentile
from repro.net.chaos import collect_aligned_spans
from repro.net.client import LiveClient, LiveClientError
from repro.net.cluster import LocalCluster
from repro.net.observe import MetricsSnapshot
from repro.types import NodeId
from repro.verify.histories import History, Operation
from repro.verify.linearizability import check_kv_linearizable

from perf.cluster import (
    REPLICAS,
    ClusterShape,
    Observation,
    cpu_seconds,
    live_nodes,
    rss_mb,
    running_cluster,
    snapshots,
)
from perf.driver import (
    FixedOps,
    LoadDriver,
    LoopResult,
    OpStream,
    key_order,
    value_for,
)
from perf.names import PER_LAYER, UNITS
from perf.trace import Tracer

#: unmeasured seconds at the start of every run: connections, the leader's
#: lease and the interpreter's caches settle before anything is timed.
WARMUP_S = 1.0
#: how long after a RECONFIGURE the paced stream's completions are searched
#: for the hand-off gap.
GAP_WINDOW_S = 1.5
#: a retired replica stays up this long after the RECONFIGURE is
#: acknowledged, so clients still aimed at it are redirected, not cut off.
RETIRE_GRACE_S = 0.3
#: seconds between the starts of two rolling replacements.
REPLACEMENT_SPACING_S = 2.1
MAX_REPLACEMENTS = 8
CATCHUP_TIMEOUT_S = 60.0
#: how long the load runs against two replicas before the third restarts.
DOWNTIME_S = 2.0
#: alternating untraced / traced slices of a traced pass.
TRACE_SLICES = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: callers of the closed loop (each waits for its reply).
    lanes: int
    shape: ClusterShape
    read_frac: float = 0.0
    #: requests per second of the paced open stream (None: closed loop).
    pace_hz: float | None = None
    #: kill and restart a follower after the loop and time its catch-up.
    restart_follower: bool = False
    #: fresh clusters an end-to-end run measures on (the median is kept).
    #: One where the workload is about what builds up over a long run.
    segments: int = 3

    @property
    def loop(self) -> str:
        if self.pace_hz is not None:
            return f"open stream paced at {self.pace_hz:g}/s, one caller"
        return f"closed loop, {self.lanes} callers"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "commit-durable",
            "8 callers, no batching, 100% set: one slot and one fsync per op "
            "per replica, so WAL fsync and the accept round trip do the work",
            lanes=8,
            shape=ClusterShape(),
        ),
        Workload(
            "commit-batched",
            "256 callers, leader batching, 100% set: fsyncs amortised away, "
            "so codec, transport, batching and apply CPU do the work; p99_ms is "
            "per-layer here (spread 0.29)",
            lanes=256,
            shape=ClusterShape(batched=True),
        ),
        Workload(
            "commit-sustained",
            "64 callers, batching, serve-default 5 s checkpoints, then a "
            "follower restart: checkpoint, WAL compaction and recovery; p99_ms is "
            "per-layer here (one election moves it, spread 0.67)",
            lanes=64,
            shape=ClusterShape(batched=True, checkpoint_s=5.0),
            restart_follower=True,
            segments=1,
        ),
        Workload(
            "read-lease",
            "64 callers, 95% get / 5% set, lease reads: reads bypass "
            "consensus and storage, the writes beside them do not",
            lanes=64,
            shape=ClusterShape(read_mode="lease"),
            read_frac=0.95,
        ),
        Workload(
            "reconfig-rolling",
            "200 set/s sent on schedule while members are replaced one by "
            "one over 2 MB of state: seal, cut, state transfer (the paper); "
            "p99_ms and handoff_gap_* are per-layer here (spread 0.26)",
            lanes=1,
            shape=ClusterShape(
                checkpoint_s=5.0, reserve=MAX_REPLACEMENTS, state_bytes=2_000_000
            ),
            pace_hz=200.0,
            segments=1,
        ),
    )
}


@dataclass
class RunReport:
    """One run of one workload."""

    workload: str
    seed: int
    seconds: float
    correct: bool = True
    #: an election beyond the bootstrap one on a workload with no periodic
    #: checkpoint and no reconfiguration: the box interfered.
    disturbed: bool = False
    attempted: int = 0
    failed: int = 0
    samples: int = 0
    wall_s: float = 0.0
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    trace_file: str | None = None

    def fail(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)


def replacements_for(seconds: float) -> int:
    return max(1, min(MAX_REPLACEMENTS, int((seconds - 1.0) / REPLACEMENT_SPACING_S)))


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    out_dir: Path,
    *,
    clusters: int = 1,
    trace: bool = False,
) -> RunReport:
    """Measure ``workload`` for ``seconds`` in all; see the module docstring.

    ``clusters`` fresh clusters are set up one after the other and
    ``setup_s`` is the median of their set-up times. The workload measures
    on the last ``min(clusters, workload.segments)`` of them, for an equal
    share of ``seconds`` each, and every metric is the median over those
    segments: most of the run-to-run spread on a small box is between
    clusters (where processes land, how the loop phase-locks), not within
    one.
    """
    began = time.perf_counter()
    measured = min(clusters, workload.segments)
    tracer = Tracer(enabled=False)
    setup_times = []
    parts = []
    for index in range(clusters):
        with running_cluster(workload.shape, seed, out_dir) as (cluster, setup_s):
            setup_times.append(setup_s)
            if index < clusters - measured:
                continue
            part = RunReport(workload.name, seed, seconds / measured)
            history: list[Operation] | None = [] if workload.pace_hz else None
            known = {key: value_for(0) for key in key_order(seed)}
            with LoadDriver(
                "perf", cluster.addresses, cluster.initial, workload.lanes,
                tracer, workload.pace_hz, history, known,
            ) as driver:
                if workload.pace_hz is None:
                    _closed_loop(workload, cluster, driver, part, trace)
                else:
                    _paced_stream(workload, cluster, driver, part, trace)
            parts.append(part)
    report = _combine(parts, seconds)
    report.end_to_end["setup_s"] = statistics.median(setup_times)
    if trace:
        shares = tracer.self_fractions()
        for name in ("encode", "send", "wait", "decode"):
            report.per_layer[f"client.{name}_frac"] = shares.get(name, 0.0)
        trace_path = out_dir / f"trace-{workload.name}.json"
        tracer.write(trace_path)
        report.trace_file = str(trace_path)
    report.wall_s = time.perf_counter() - began
    return report


def _combine(parts: list[RunReport], seconds: float) -> RunReport:
    """One report from the measured segments: medians, sums, all-correct."""
    first = parts[0]
    report = RunReport(first.workload, first.seed, seconds)
    for part in parts:
        report.correct = report.correct and part.correct
        report.disturbed = report.disturbed or part.disturbed
        report.attempted += part.attempted
        report.failed += part.failed
        report.samples += part.samples
        report.problems += part.problems
    for combined, pick in (
        (report.end_to_end, lambda part: part.end_to_end),
        (report.per_layer, lambda part: part.per_layer),
    ):
        for name in dict.fromkeys(name for part in parts for name in pick(part)):
            combined[name] = statistics.median(
                pick(part)[name] for part in parts if name in pick(part)
            )
    return report


# -- the closed loops ---------------------------------------------------------


def _closed_loop(
    workload: Workload,
    cluster: LocalCluster,
    driver: LoadDriver,
    report: RunReport,
    trace: bool,
) -> None:
    stream = OpStream(report.seed, workload.lanes, workload.read_frac)
    driver.run(stream, WARMUP_S)
    before = Observation.take(cluster)
    if trace:
        # Throughput drifts along a run (the replicas' logs grow), so the
        # traced and untraced stretches alternate in short slices.
        slices = []
        for index in range(TRACE_SLICES):
            driver.tracer.enabled = index % 2 == 1
            slices.append(driver.run(stream, report.seconds / TRACE_SLICES))
        driver.tracer.enabled = False
        plain, traced = _merge(slices[0::2]), _merge(slices[1::2])
        stretches = [plain, traced]
        report.per_layer["trace.overhead_frac"] = 1.0 - _rate(traced) / _rate(plain)
    else:
        plain = driver.run(stream, report.seconds)
        stretches = [plain]
    after = Observation.take(cluster)
    _latency_metrics(report, plain)
    report.end_to_end["ops_s"] = _rate(plain)
    _account(report, stretches)
    acked = sum(s.acked for s in stretches)
    gets = sum(s.gets for s in stretches)
    _observed_metrics(report, cluster, before, after, acked, gets)
    quiet = workload.shape.checkpoint_s == 0
    if quiet and report.per_layer["paxos.elections"] > 0:
        report.disturbed = True
    if workload.restart_follower:
        _restart_follower(cluster, driver, stream, report, after)
    _read_back(driver, stream.keys, report)


def _merge(results: list[LoopResult]) -> LoopResult:
    merged = LoopResult()
    for result in results:
        merged.attempted += result.attempted
        merged.acked += result.acked
        merged.gets += result.gets
        merged.failed += result.failed
        merged.wall_s += result.wall_s
        merged.latencies_s += result.latencies_s
        merged.violation_count += result.violation_count
        merged.violations += result.violations
    return merged


def _rate(result: LoopResult) -> float:
    return result.acked / result.wall_s if result.wall_s else 0.0


def _latency_metrics(report: RunReport, result: LoopResult) -> None:
    millis = [s * 1e3 for s in result.latencies_s]
    report.samples = len(millis)
    if millis:
        report.end_to_end["p50_ms"] = percentile(millis, 50)
        report.per_layer["p99_ms"] = percentile(millis, 99)
    else:
        report.fail("no operation was acknowledged")


def _account(report: RunReport, stretches: list[LoopResult]) -> None:
    for stretch in stretches:
        report.attempted += stretch.attempted
        report.failed += stretch.failed
        if stretch.violation_count:
            report.fail(f"{stretch.violation_count} replies violated the "
                        f"register semantics: {stretch.violations}")
    report.per_layer["failed_frac"] = report.failed / max(1, report.attempted)


def _read_back(driver: LoadDriver, keys: list[str], report: RunReport) -> None:
    """Every key must hold its last acknowledged write (or a later write
    that was sent and never acknowledged, which may have taken effect)."""
    result = driver.run(FixedOps([("get", (key,), 32) for key in keys], driver.lanes), None)
    wrong = [
        key for key in keys
        if result.reads.get(key) not in (driver.acked_value[key], driver.sent_value[key])
    ]
    if result.acked != len(keys) or wrong or result.violation_count:
        report.fail(f"read-back: {result.acked}/{len(keys)} keys answered, "
                    f"{len(wrong)} hold the wrong value {wrong[:5]}, "
                    f"{result.violations}")


def _restart_follower(
    cluster: LocalCluster,
    driver: LoadDriver,
    stream: OpStream,
    report: RunReport,
    after: Observation,
) -> None:
    """SIGKILL a follower, keep the load on for ``DOWNTIME_S`` without it,
    restart it and time its catch-up: recovery from checkpoint + WAL, then
    learning every slot decided while it was down. Caught up means its
    ``paxos.decided`` has reached what the leader's read at the restart.
    """
    leader = max(after.cpu_s, key=lambda node: after.cpu_s[node])
    follower = next(n for n in cluster.initial if n != leader)
    cluster.kill(follower)
    _account(report, [driver.run(stream, DOWNTIME_S)])
    target = int(snapshots(cluster, [leader])[leader].counters["paxos.decided"])
    restarted_at = time.perf_counter()
    cluster.restart(follower, timeout=30.0)
    while True:
        snap = snapshots(cluster, [follower])[follower]
        decided = int(snap.counters.get("paxos.decided", 0))
        if decided >= target:
            break
        if time.perf_counter() - restarted_at > CATCHUP_TIMEOUT_S:
            report.fail(f"{follower} learned {decided}/{target} slots "
                        f"{CATCHUP_TIMEOUT_S:g} s after its restart")
            break
        time.sleep(0.02)
    report.per_layer["catchup_s"] = time.perf_counter() - restarted_at
    recovery = snap.histograms.get("recovery.duration", {})
    report.per_layer["recovery.duration_s"] = recovery.get("max", 0.0)
    report.per_layer["recovery.replayed_records"] = float(
        snap.counters.get("recovery.replayed_records", 0)
    )


# -- the paced stream with rolling replacements --------------------------------


class Replacements(threading.Thread):
    """Replace the oldest member with a cold joiner, again and again.

    Each round: RECONFIGURE to ``members[1:] + [joiner]`` (timed), keep the
    retiree up for ``RETIRE_GRACE_S``, snapshot everyone's ``#metrics``
    (the retiree's spans and counters die with it), kill the retiree and,
    once the gap window has passed, spawn the next joiner.
    """

    def __init__(self, cluster: LocalCluster, count: int, origin: float):
        super().__init__(name="perf-admin", daemon=True)
        self.cluster = cluster
        self.count = count
        self.origin = origin
        self.sent_at: list[float] = []
        self.ack_s: list[float] = []
        self.failures: list[str] = []
        self.error: BaseException | None = None
        #: newest snapshot of every replica ever polled, and the
        #: reconfiguration spans merged over all polls (epoch -> phase ->
        #: earliest time on the driver's clock).
        self.last_seen: dict[str, MetricsSnapshot] = {}
        self.cpu_s: dict[str, float] = {}
        self.spans: dict[str, dict[str, float]] = {}

    def run(self) -> None:
        try:
            self._roll()
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            self.error = exc

    def _roll(self) -> None:
        cluster = self.cluster
        members = list(cluster.initial)
        joiners = cluster.reserved()
        with LiveClient(
            "perf-admin", cluster.addresses, view=members, request_timeout=1.0
        ) as admin:
            for i in range(self.count):
                _sleep_until(self.origin + 0.4 + i * REPLACEMENT_SPACING_S)
                retiree, members = members[0], members[1:] + [joiners[i]]
                sent = time.monotonic()
                self.sent_at.append(sent)
                try:
                    admin.reconfigure(members, deadline=20.0)
                    self.ack_s.append(time.monotonic() - sent)
                except LiveClientError as exc:
                    self.failures.append(f"RECONFIGURE {i + 1}: {exc}")
                admin.view = sorted(NodeId(m) for m in members)
                _sleep_until(sent + RETIRE_GRACE_S)
                self.observe()
                cluster.kill(retiree)
                if i + 1 < self.count:
                    _sleep_until(sent + GAP_WINDOW_S)
                    cluster.spawn(joiners[i + 1])
                    cluster.wait_ready([joiners[i + 1]], timeout=30.0)

    def observe(self) -> None:
        live = live_nodes(self.cluster)
        fetched, aligned, errors = collect_aligned_spans(
            self.cluster.addresses, live, None, self.origin
        )
        if errors:
            raise RuntimeError(f"#metrics poll failed: {errors}")
        for node, snap in fetched.items():
            self.last_seen[node] = snap.snapshot
            self.cpu_s[node] = cpu_seconds(self.cluster.procs[node].pid)
        for per_epoch in aligned.values():
            for epoch, phases in per_epoch.items():
                merged = self.spans.setdefault(epoch, {})
                for phase, at in phases.items():
                    merged[phase] = min(at, merged.get(phase, at))


def _sleep_until(instant: float) -> None:
    delay = instant - time.monotonic()
    if delay > 0:
        time.sleep(delay)


def _paced_stream(
    workload: Workload,
    cluster: LocalCluster,
    driver: LoadDriver,
    report: RunReport,
    trace: bool,
) -> None:
    stream = OpStream(report.seed, 1, 0.0)
    joiners = cluster.reserved()
    cluster.spawn(joiners[0])
    cluster.wait_ready([joiners[0]], timeout=30.0)
    driver.run(stream, WARMUP_S)
    before = Observation.take(cluster)
    driver.tracer.enabled = trace
    admin = Replacements(cluster, replacements_for(report.seconds), time.monotonic())
    admin.start()
    try:
        result = driver.run(stream, report.seconds)
    finally:
        admin.join(timeout=120.0)
    driver.tracer.enabled = False
    if admin.error is not None:
        raise admin.error
    if admin.is_alive():
        raise RuntimeError("the replacement thread did not finish")
    admin.observe()

    _latency_metrics(report, result)
    report.end_to_end["ops_s"] = _rate(result)
    _account(report, [result])
    for failure in admin.failures:
        report.fail(failure)
    if trace:
        # No untraced half exists beside a schedule of replacements; the
        # shortfall against the offered rate stands in for the overhead.
        report.per_layer["trace.overhead_frac"] = 1.0 - _rate(result) / workload.pace_hz
    after = Observation(admin.last_seen, admin.cpu_s, time.process_time())
    _observed_metrics(report, cluster, before, after, result.acked, 0)

    stream_end = time.monotonic()
    gaps = [
        longest_gap(result.completions, sent, min(sent + GAP_WINDOW_S, stream_end))
        for sent in admin.sent_at
        if sent < stream_end
    ]
    layer = report.per_layer
    layer["handoff_gap_p50_ms"] = statistics.median(gaps) * 1e3
    layer["handoff_gap_max_ms"] = max(gaps) * 1e3
    if admin.ack_s:
        layer["reconfig_ack_p50_ms"] = statistics.median(admin.ack_s) * 1e3
    layer["paced.lateness_p99_ms"] = percentile(result.lateness_s, 99) * 1e3
    complete = [
        p for p in admin.spans.values()
        if all(phase in p for phase in ("decided", "cut", "transfer", "first-commit"))
    ]
    if len(complete) < len(admin.ack_s):
        report.fail(f"{len(complete)} complete hand-off spans for "
                    f"{len(admin.ack_s)} acknowledged RECONFIGUREs")
    for name, first, last in (
        ("reconfig.decided_to_cut_ms", "decided", "cut"),
        ("reconfig.cut_to_transfer_ms", "cut", "transfer"),
        ("reconfig.transfer_to_first_commit_ms", "transfer", "first-commit"),
        ("reconfig.handoff_ms", "decided", "first-commit"),
    ):
        if complete:
            layer[name] = statistics.median(p[last] - p[first] for p in complete) * 1e3

    # The recorded stream plus a read of every key it wrote must be
    # linearizable (Wing-Gong, key by key).
    written = [key for key in stream.keys if driver.sent_value[key] != value_for(0)]
    read = driver.run(FixedOps([("get", (key,), 32) for key in written], 1), None)
    if read.acked != len(written) or read.violation_count:
        report.fail(f"read-back: {read.acked}/{len(written)} keys answered, "
                    f"{read.violations}")
    assert driver.history is not None
    verdict = check_kv_linearizable(History(driver.history))
    if not verdict.ok:
        report.fail(f"history is NOT linearizable at key {verdict.failing_key}")


# -- what the replicas report ---------------------------------------------------


def _observed_metrics(
    report: RunReport,
    cluster: LocalCluster,
    before: Observation,
    after: Observation,
    ops: int,
    gets: int,
) -> None:
    """Per-layer metrics from ``#metrics`` counters and ``/proc``.

    Counter ratios sum over every replica seen (the convention of
    BENCH_commit.json: 3 replicas that each fsync once per op read
    ``wal.fsyncs_per_op`` = 3). A replica that joined after ``before``
    counts from its start; ``after`` holds the last sight of every replica,
    also of those killed since.
    """
    def total(name: str) -> int:
        return sum(
            after.counter(node, name)
            - (before.counter(node, name) if node in before.metrics else 0)
            for node in after.metrics
        )

    per_op = 1.0 / max(1, ops)
    layer = report.per_layer
    layer["net.frames_per_op"] = total("net.frames_sent") * per_op
    layer["net.bytes_per_op"] = total("net.bytes_sent") * per_op
    layer["net.frames_per_flush"] = total("net.frames_flushed") / max(
        1, total("net.batches_flushed"))
    layer["net.frames_dropped"] = float(total("net.frames_dropped"))
    layer["net.reconnects"] = float(total("net.reconnects"))
    layer["net.queue_depth_max"] = max(
        snap.gauges.get("net.queue_depth", 0.0) for snap in after.metrics.values())
    decided = total("paxos.decided")
    layer["paxos.slots_per_op"] = decided * per_op
    layer["paxos.accepts_per_op"] = total("paxos.accepts_sent") * per_op
    layer["paxos.batch_mean"] = total("smr.commits") / max(1, decided)
    layer["paxos.elections"] = float(total("paxos.elections"))
    layer["paxos.campaigns"] = float(total("paxos.campaigns"))
    layer["smr.lease_read_frac"] = total("smr.lease_reads") / gets if gets else 0.0
    layer["smr.orphans"] = float(total("smr.orphans"))
    fsyncs = total("wal.fsyncs")
    layer["wal.fsyncs_per_op"] = fsyncs * per_op
    layer["wal.appends_per_op"] = total("wal.appends") * per_op
    layer["wal.bytes_per_op"] = total("wal.bytes") * per_op
    layer["wal.group_commit_mean"] = total("wal.appends") / max(1, fsyncs)
    layer["wal.checkpoints"] = float(total("wal.checkpoints"))

    cpu = {
        node: seconds - before.cpu_s.get(node, 0.0)
        for node, seconds in after.cpu_s.items()
    }
    leader = max(cpu, key=lambda node: cpu[node])
    followers = [seconds for node, seconds in cpu.items() if node != leader]
    kops = max(1, ops) / 1e3
    layer["proc.leader_cpu_s_per_kop"] = cpu[leader] / kops
    layer["proc.follower_cpu_s_per_kop"] = statistics.mean(followers) / kops
    layer["proc.client_cpu_s_per_kop"] = (
        after.client_cpu_s - before.client_cpu_s) / kops
    lag = after.metrics[leader].histograms.get("smr.exec_lag", {})
    layer["smr.exec_lag_p50_ms"] = lag.get("p50", 0.0) * 1e3
    layer["smr.exec_lag_p99_ms"] = lag.get("p99", 0.0) * 1e3
    if cluster.procs[leader].poll() is None:
        layer["proc.leader_rss_mb"] = rss_mb(cluster.procs[leader].pid)
    #: inputs of the budget (perf/run.py joins them with the harness).
    layer["_cluster_cpu_us_per_op"] = sum(cpu.values()) * 1e6 * per_op
    layer["_commits_per_op"] = total("smr.commits") * per_op


def explained_fraction(observed: dict[str, float], harness: dict[str, float],
                       batched: bool) -> float:
    """``budget.explained_frac``: the replicas' CPU per op that call counts
    times harness costs account for. Each frame is charged what the
    loopback transport (codec included) spends per frame, each WAL append
    and each apply its harness time, each op its share of a simulated
    Multi-Paxos command per command that went through consensus (the
    simulator's own event loop rides in that figure, so the term is an
    upper estimate). The rest is what in-program tracing must find."""
    paxos = harness["paxos.sim_cpu_us_per_cmd_batched" if batched
                    else "paxos.sim_cpu_us_per_cmd"]
    explained = (
        observed["net.frames_per_op"] * 1e6 / harness["transport.loopback_frames_s"]
        + observed["wal.appends_per_op"] * harness["wal.append_us"]
        + observed["_commits_per_op"] * harness["statemachine.apply_us"]
        + observed["_commits_per_op"] / REPLICAS * paxos
    )
    return explained / observed["_cluster_cpu_us_per_op"]


def complete_per_layer(values: dict[str, float]) -> dict[str, dict[str, Any]]:
    """Every per-layer name with its unit; names without samples read 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": UNITS[name]}
        for name, _, _ in PER_LAYER
    }

