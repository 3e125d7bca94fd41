"""Experiment definitions: one function per table/figure in DESIGN.md.

Every function runs its sweep and returns an :class:`ExperimentOutput`
holding renderable tables/series plus the raw numbers (which the test
suite asserts shape-properties against: who wins, by roughly what factor).

The brief announcement carries no quantitative evaluation, so these
experiments *are* the evaluation a full paper would have run — they
exercise each claim: negligible steady-state overhead (T1), ordering that
never stops during reconfiguration (F1), state-size-independent ordering
latency (T2), liveness under reconfiguration storms (F2/F4), failover via
reconfiguration (T3), bounded tail latency (F3), message cost (T4), and
block-agnosticism (T5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.harness import RunResult, run_experiment
from repro.metrics.report import Series, Table
from repro.metrics.stats import summarize_latencies
from repro.sim.failures import FailureSchedule
from repro.sim.network import LatencyModel
from repro.workload.schedules import (
    ReconfigStep,
    full_replacement,
    migration_storm,
    storm,
)

#: bandwidth used where state transfer must be visible (25 MB/s models a
#: throttled inter-rack/backup link; protocol messages are unaffected).
TRANSFER_LATENCY = LatencyModel(bandwidth=25_000_000.0)

PROTOCOLS = ("speculative", "stw", "raft")
PROTOCOL_LABELS = {
    "speculative": "reconfig-smr (speculative, this paper)",
    "stw": "stop-the-world hand-off",
    "raft": "raft (native reconfiguration)",
    "raw-static": "raw static multi-paxos (no reconfig support)",
}


@dataclass(slots=True)
class ExperimentOutput:
    """Renderables plus raw numbers for one experiment."""

    name: str
    tables: list[Table] = field(default_factory=list)
    series: list[Series] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def print(self) -> None:  # pragma: no cover - console output
        for table in self.tables:
            table.print()
        for series in self.series:
            series.print()


# ---------------------------------------------------------------------------
# T1 — steady-state overhead of the composition
# ---------------------------------------------------------------------------


def exp_t1_overhead(
    sizes: tuple[int, ...] = (3, 5, 7), run_for: float = 3.0, seed: int = 42
) -> ExperimentOutput:
    """Throughput/latency with NO reconfigurations, cluster size sweep."""
    table = Table(
        "T1: steady-state overhead (no reconfigurations)",
        ["protocol", "n", "throughput (op/s)", "p50 (ms)", "p99 (ms)", "msgs/op"],
    )
    data: dict = {}
    for n in sizes:
        members = tuple(f"n{i + 1}" for i in range(n))
        for kind in ("raw-static", "speculative", "stw", "raft"):
            result = run_experiment(
                kind, seed=seed, members=members, clients=4, run_for=run_for
            )
            latency = result.collector.latency_summary()
            throughput = result.throughput()
            table.add_row(
                PROTOCOL_LABELS[kind],
                n,
                f"{throughput:.0f}",
                f"{latency.p50_ms:.2f}",
                f"{latency.p99_ms:.2f}",
                f"{result.messages_per_op():.1f}",
            )
            data[(kind, n)] = {
                "throughput": throughput,
                "p50_ms": latency.p50_ms,
                "p99_ms": latency.p99_ms,
                "msgs_per_op": result.messages_per_op(),
            }
    return ExperimentOutput("T1", tables=[table], data=data)


# ---------------------------------------------------------------------------
# F1 — throughput timeline through one reconfiguration
# ---------------------------------------------------------------------------


def exp_f1_timeline(
    preload: int = 60_000,
    reconfig_at: float = 2.0,
    run_for: float = 5.0,
    seed: int = 42,
) -> ExperimentOutput:
    """Migrate 2 of 3 members at once; watch committed throughput.

    The new quorum depends on joining nodes, so the hand-off sits on the
    critical path: stop-the-world stalls for the transfer, the speculative
    pipeline keeps ordering. Raft performs the equivalent migration as a
    sequence of single-server changes.
    """
    out = ExperimentOutput("F1")
    members = ("n1", "n2", "n3")
    schedule = [ReconfigStep(reconfig_at, ("n1", "n4", "n5"))]
    for kind in PROTOCOLS:
        result = run_experiment(
            kind,
            seed=seed,
            members=members,
            clients=6,
            run_for=run_for,
            preload=preload,
            schedule=schedule,
            latency=TRANSFER_LATENCY,
            bin_width=0.1,
        )
        series = Series(
            f"F1: committed throughput over time — {PROTOCOL_LABELS[kind]}",
            "t (s)",
            "ops/s",
        )
        for t, rate in result.collector.timeline.series(result.started_at, result.ended_at):
            note = "reconfig ->" if abs(t - reconfig_at) < result.collector.timeline.bin_width / 2 else ""
            series.add(t, rate, note)
        out.series.append(series)
        window_end = min(reconfig_at + 2.0, result.ended_at)
        out.data[kind] = {
            "gap_after_reconfig": result.collector.unavailability(reconfig_at, window_end),
            "throughput": result.throughput(),
            "during": result.collector.throughput(reconfig_at, window_end),
        }
    table = Table(
        "F1 summary: service interruption around the migration",
        ["protocol", "longest reply gap after reconfig (ms)", "ops/s during hand-off"],
    )
    for kind in PROTOCOLS:
        table.add_row(
            PROTOCOL_LABELS[kind],
            f"{out.data[kind]['gap_after_reconfig'] * 1000:.0f}",
            f"{out.data[kind]['during']:.0f}",
        )
    out.tables.append(table)
    return out


# ---------------------------------------------------------------------------
# T2 — reconfiguration latency vs application state size
# ---------------------------------------------------------------------------


def exp_t2_statesize(
    preloads: tuple[int, ...] = (1_000, 30_000, 120_000),
    reconfig_at: float = 1.5,
    seed: int = 42,
) -> ExperimentOutput:
    """Replace the whole quorum; how long until the new epoch serves?

    Measured from the reconfiguration request to the first client reply
    produced by the new configuration. The speculative pipeline overlaps
    ordering with the transfer; stop-the-world pays the full transfer
    before ordering starts, so its latency grows with state size.
    """
    table = Table(
        "T2: hand-off latency vs state size (full quorum replacement)",
        [
            "protocol",
            "state entries",
            "snapshot (MB)",
            "ordering resumes in new epoch (ms)",
            "first reply from new epoch (ms)",
            "reply gap (ms)",
        ],
    )
    out = ExperimentOutput("T2", tables=[table])
    members = ("n1", "n2", "n3")
    for preload in preloads:
        schedule = full_replacement(list(members), at=reconfig_at, first_fresh=4)
        for kind in ("speculative", "stw"):
            result = run_experiment(
                kind,
                seed=seed,
                members=members,
                clients=4,
                run_for=reconfig_at + 4.0,
                preload=preload,
                value_size=64,
                schedule=schedule,
                latency=TRANSFER_LATENCY,
            )
            order_resume = _epoch_latency(result.orders, 1, reconfig_at, result.ended_at)
            first_reply = _epoch_latency(result.commits, 1, reconfig_at, result.ended_at)
            gap = result.collector.unavailability(
                reconfig_at, min(reconfig_at + 3.0, result.ended_at)
            )
            snapshot_mb = (16 + 88 * preload) / 1e6
            table.add_row(
                PROTOCOL_LABELS[kind],
                preload,
                f"{snapshot_mb:.2f}",
                f"{order_resume * 1000:.0f}",
                f"{first_reply * 1000:.0f}",
                f"{gap * 1000:.0f}",
            )
            out.data[(kind, preload)] = {
                "order_resume": order_resume,
                "first_reply": first_reply,
                "gap": gap,
            }
    return out


def _epoch_latency(collector, epoch: int, since: float, fallback: float) -> float:
    first = collector.first_commit_in_epoch(epoch)
    if first is None:
        return fallback - since
    return first - since


# ---------------------------------------------------------------------------
# F2 — reconfiguration storms
# ---------------------------------------------------------------------------


def exp_f2_storm(
    intervals: tuple[float, ...] = (1.0, 0.5, 0.25, 0.1),
    rounds: int = 6,
    preload: int = 40_000,
    seed: int = 42,
) -> ExperimentOutput:
    """Migration storms at increasing rate: who stays live?

    Each round keeps one member and replaces the other two, so every new
    quorum depends on joiners whose state is still in flight — the
    hand-off sits squarely on the critical path, round after round.
    """
    out = ExperimentOutput("F2")
    chart = {kind: Series(
        f"F2: throughput under reconfig storms — {PROTOCOL_LABELS[kind]}",
        "interval (s)",
        "ops/s",
    ) for kind in PROTOCOLS}
    table = Table(
        "F2 summary: migration storms (2 of 3 replaced every interval)",
        ["protocol", "interval (s)", "ops/s", "longest reply gap (ms)", "epochs/steps"],
    )
    for interval in intervals:
        start = 1.0
        run_for = start + rounds * interval + 3.0
        for kind in PROTOCOLS:
            schedule = [
                ReconfigStep(step.time, step.members)
                for step in migration_storm(
                    ["n1", "n2", "n3"], start=start, interval=interval,
                    count=rounds, first_fresh=4,
                )
            ]
            result = run_experiment(
                kind,
                seed=seed,
                members=("n1", "n2", "n3"),
                clients=4,
                run_for=run_for,
                preload=preload,
                schedule=schedule,
                latency=TRANSFER_LATENCY,
            )
            throughput = result.throughput()
            gap = result.unavailability()
            chart[kind].add(interval, throughput)
            progress = _reconfig_progress(result)
            table.add_row(
                PROTOCOL_LABELS[kind],
                interval,
                f"{throughput:.0f}",
                f"{gap * 1000:.0f}",
                progress,
            )
            out.data[(kind, interval)] = {"throughput": throughput, "gap": gap}
    out.series.extend(chart.values())
    out.tables.append(table)
    return out


def _reconfig_progress(result: RunResult) -> str:
    service = result.service
    if hasattr(service, "newest_epoch"):
        return f"epoch {service.newest_epoch()}"
    if hasattr(service, "applied_membership"):
        return f"members {service.applied_membership()}"
    return "-"


# ---------------------------------------------------------------------------
# T3 — crash + replacement availability
# ---------------------------------------------------------------------------


def exp_t3_failover(seed: int = 42, preload: int = 20_000) -> ExperimentOutput:
    """Crash a member, reconfigure a replacement in; measure the outage."""
    table = Table(
        "T3: crash + replacement via reconfiguration",
        ["protocol", "crashed", "reply gap (ms)", "ops/s overall", "recovered members"],
    )
    out = ExperimentOutput("T3", tables=[table])
    crash_at, reconfig_at, run_for = 1.5, 1.7, 5.0
    for crashed, label in (("n3", "follower"), ("n1", "likely leader")):
        survivors = [n for n in ("n1", "n2", "n3") if n != crashed]
        target = tuple(survivors + ["n4"])
        for kind in PROTOCOLS:
            failures = FailureSchedule().crash(crash_at, crashed)
            schedule = [ReconfigStep(reconfig_at, target)]
            result = run_experiment(
                kind,
                seed=seed,
                members=("n1", "n2", "n3"),
                clients=4,
                run_for=run_for,
                preload=preload,
                schedule=schedule,
                failures=failures,
                latency=TRANSFER_LATENCY,
                request_timeout=0.3,
            )
            gap = result.collector.unavailability(
                crash_at, min(crash_at + 3.0, result.ended_at)
            )
            table.add_row(
                PROTOCOL_LABELS[kind],
                f"{crashed} ({label})",
                f"{gap * 1000:.0f}",
                f"{result.throughput():.0f}",
                _reconfig_progress(result),
            )
            out.data[(kind, label)] = {"gap": gap, "throughput": result.throughput()}
    return out


# ---------------------------------------------------------------------------
# F3 — client latency percentiles under periodic reconfiguration
# ---------------------------------------------------------------------------


def exp_f3_latency(
    period: float = 1.0, rounds: int = 5, preload: int = 40_000, seed: int = 42
) -> ExperimentOutput:
    """Latency distribution while the membership rolls every ``period``."""
    table = Table(
        f"F3: client latency with a rolling replacement every {period}s",
        ["protocol", "ops", "mean (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)", "max (ms)"],
    )
    out = ExperimentOutput("F3", tables=[table])
    run_for = 1.0 + rounds * period + 2.0
    for kind in PROTOCOLS:
        schedule = [
            ReconfigStep(step.time, step.members)
            for step in storm(["n1", "n2", "n3"], 1.0, period, rounds, first_fresh=4)
        ]
        result = run_experiment(
            kind,
            seed=seed,
            members=("n1", "n2", "n3"),
            clients=4,
            run_for=run_for,
            preload=preload,
            schedule=schedule,
            latency=TRANSFER_LATENCY,
        )
        summary = result.collector.latency_summary()
        table.add_row(
            PROTOCOL_LABELS[kind],
            summary.count,
            f"{summary.mean_ms:.2f}",
            f"{summary.p50_ms:.2f}",
            f"{summary.p95_ms:.2f}",
            f"{summary.p99_ms:.2f}",
            f"{summary.max_ms:.0f}",
        )
        out.data[kind] = summary
        per_bin = Series(
            f"F3: p99 latency per 250ms — {PROTOCOL_LABELS[kind]}", "t (s)", "p99 (ms)"
        )
        bin_width = 0.25
        t = result.started_at
        while t < result.ended_at:
            window = result.collector.latencies_between(t, t + bin_width)
            if window:
                per_bin.add(t, summarize_latencies(window).p99_ms)
            t += bin_width
        out.series.append(per_bin)
    return out


# ---------------------------------------------------------------------------
# T4 — message & byte cost
# ---------------------------------------------------------------------------


def exp_t4_msgcost(seed: int = 42, ops: int = 1200) -> ExperimentOutput:
    """Messages and bytes per op, steady state and with reconfigurations."""
    table = Table(
        "T4: message cost",
        [
            "protocol",
            "msgs/op (steady)",
            "bytes/op (steady)",
            "msgs/op (3 reconfigs)",
            "extra msgs per reconfig",
        ],
    )
    out = ExperimentOutput("T4", tables=[table])
    for kind in PROTOCOLS:
        steady = run_experiment(
            kind, seed=seed, clients=4, ops_per_client=ops // 4, run_for=30.0
        )
        # Three rolling replacements timed to land while the finite
        # workload is still in flight (≈0.3–1.5 s at these rates).
        schedule = [
            ReconfigStep(step.time, step.members)
            for step in storm(["n1", "n2", "n3"], 0.5, 0.3, 3, first_fresh=4)
        ]
        with_reconfig = run_experiment(
            kind,
            seed=seed,
            clients=4,
            ops_per_client=ops // 4,
            run_for=30.0,
            schedule=schedule,
        )
        # Per-reconfiguration cost measured on an *idle* service over a
        # fixed window, so duration-proportional chatter (heartbeats,
        # probes) cancels out of the difference exactly.
        idle = run_experiment(kind, seed=seed, clients=0, run_for=3.0)
        idle_reconfig = run_experiment(
            kind, seed=seed, clients=0, run_for=3.0, schedule=schedule
        )
        extra = (
            idle_reconfig.sim.network.stats.messages_sent
            - idle.sim.network.stats.messages_sent
        ) / 3.0
        table.add_row(
            PROTOCOL_LABELS[kind],
            f"{steady.messages_per_op():.1f}",
            f"{steady.bytes_per_op():.0f}",
            f"{with_reconfig.messages_per_op():.1f}",
            f"{extra:.0f}",
        )
        out.data[kind] = {
            "steady_msgs_per_op": steady.messages_per_op(),
            "steady_bytes_per_op": steady.bytes_per_op(),
            "reconfig_msgs_per_op": with_reconfig.messages_per_op(),
            "extra_per_reconfig": extra,
        }
    return out


# ---------------------------------------------------------------------------
# F4 — ablation: speculation pipeline depth
# ---------------------------------------------------------------------------


def exp_f4_ablation(
    depths: tuple[int | None, ...] = (1, 2, 3, None),
    interval: float = 0.25,
    rounds: int = 6,
    preload: int = 40_000,
    seed: int = 42,
) -> ExperimentOutput:
    """Sweep the pipeline-depth gate under a migration storm (1 = STW)."""
    series = Series(
        "F4: storm throughput vs speculation pipeline depth",
        "depth (0 = unbounded)",
        "ops/s",
    )
    table = Table(
        f"F4: pipeline-depth ablation (2-of-3 migration every {interval}s)",
        ["pipeline depth", "ops/s", "longest reply gap (ms)", "final epoch"],
    )
    out = ExperimentOutput("F4", tables=[table], series=[series])
    run_for = 1.0 + rounds * interval + 3.0
    for depth in depths:
        schedule = [
            ReconfigStep(step.time, step.members)
            for step in migration_storm(
                ["n1", "n2", "n3"], 1.0, interval, rounds, first_fresh=4
            )
        ]
        result = run_experiment(
            "speculative",
            seed=seed,
            clients=4,
            run_for=run_for,
            preload=preload,
            schedule=schedule,
            latency=TRANSFER_LATENCY,
            pipeline_depth=depth,
        )
        throughput = result.throughput()
        gap = result.unavailability()
        label = "unbounded" if depth is None else str(depth)
        series.add(0 if depth is None else depth, throughput, label)
        table.add_row(
            label, f"{throughput:.0f}", f"{gap * 1000:.0f}", _reconfig_progress(result)
        )
        out.data[depth] = {"throughput": throughput, "gap": gap}
    return out


# ---------------------------------------------------------------------------
# T5 — block-agnosticism
# ---------------------------------------------------------------------------


def exp_t5_blocks(seed: int = 42, preload: int = 10_000) -> ExperimentOutput:
    """Same reconfiguration workload over two different building blocks."""
    table = Table(
        "T5: the composition over interchangeable static blocks",
        ["building block", "ops/s", "p99 (ms)", "msgs/op", "final epoch"],
    )
    out = ExperimentOutput("T5", tables=[table])
    schedule = [
        ReconfigStep(step.time, step.members)
        for step in storm(["n1", "n2", "n3"], 1.0, 0.8, 3, first_fresh=4)
    ]
    for engine, label in (("paxos", "multi-paxos (fault tolerant)"),
                          ("sequencer", "single sequencer (not fault tolerant)")):
        result = run_experiment(
            "speculative",
            seed=seed,
            clients=4,
            run_for=1.0 + 3 * 0.8 + 2.0,
            preload=preload,
            schedule=schedule,
            engine=engine,
        )
        summary = result.collector.latency_summary()
        table.add_row(
            label,
            f"{result.throughput():.0f}",
            f"{summary.p99_ms:.2f}",
            f"{result.messages_per_op():.1f}",
            _reconfig_progress(result),
        )
        out.data[engine] = {
            "throughput": result.throughput(),
            "p99_ms": summary.p99_ms,
            "msgs_per_op": result.messages_per_op(),
        }
    return out


# ---------------------------------------------------------------------------
# F5 — warm standby (observer) vs cold join
# ---------------------------------------------------------------------------


def exp_f5_warmjoin(
    preloads: tuple[int, ...] = (10_000, 40_000, 120_000), seed: int = 42
) -> ExperimentOutput:
    """Promotion of a pre-warmed observer vs a cold joiner.

    An observer streams the virtual log before being added; at promotion
    its boundary state is already local, so the join latency is flat in
    state size, while a cold joiner pays the full snapshot transfer.
    """
    from repro.apps.kvstore import KvStateMachine
    from repro.core.client import ClientParams
    from repro.core.service import ReplicatedService
    from repro.sim.runner import Simulator
    from repro.types import node_id

    table = Table(
        "F5: join readiness latency — warm standby vs cold joiner",
        ["join mode", "state entries", "join ready after (ms)"],
    )
    series = Series("F5: join latency vs state size", "entries", "ms")
    out = ExperimentOutput("F5", tables=[table], series=[series])

    def run(preload: int, warm: bool) -> float:
        sim = Simulator(seed=seed, latency=TRANSFER_LATENCY)

        def app():
            kv = KvStateMachine()
            kv.preload(preload)
            return kv

        service = ReplicatedService(sim, ["n1", "n2", "n3"], app)
        budget = [10_000]

        def ops():
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            return ("set", (f"k{budget[0] % 16}", budget[0]), 64)

        service.make_client("c0", ops, ClientParams(start_delay=0.2))
        if warm:
            service.add_observer("w1")
        sim.run(until=1.5)
        service.reconfigure(["n1", "n2", "w1"])
        joiner = service.replicas[node_id("w1")]
        ready = sim.run_until(
            lambda: joiner.epoch_runtime(1) is not None
            and joiner.epoch_runtime(1).start_state_ready,
            timeout=30.0,
        )
        return (sim.now - 1.5) if ready else 30.0

    for preload in preloads:
        for warm, label in ((True, "warm (observer)"), (False, "cold (snapshot)")):
            latency = run(preload, warm)
            table.add_row(label, preload, f"{latency * 1000:.0f}")
            series.add(preload, latency * 1000, label)
            out.data[(label, preload)] = latency
    return out


# ---------------------------------------------------------------------------
# T6 — failure-detector sensitivity ablation
# ---------------------------------------------------------------------------


def exp_t6_detector(
    timeouts: tuple[float, ...] = (0.05, 0.1, 0.2, 0.4), seed: int = 42
) -> ExperimentOutput:
    """Sweep the heartbeat suspicion timeout: failover speed vs stability.

    The suspect timeout is the classic availability/stability dial of any
    leader-based SMR: short timeouts fail over fast but risk spurious
    elections; long timeouts are calm but slow to react. This ablation
    crashes the leader mid-run and measures the client-visible outage for
    each setting, plus steady-state throughput (to expose any instability
    cost of aggressive settings).
    """
    from repro.consensus.multipaxos import PaxosParams
    from repro.sim.failures import FailureSchedule

    table = Table(
        "T6: suspect-timeout ablation (leader crash at t=1.5s)",
        ["suspect timeout (ms)", "reply gap (ms)", "ops/s", "spurious campaigns"],
    )
    series = Series("T6: failover outage vs suspect timeout", "timeout (ms)", "gap (ms)")
    out = ExperimentOutput("T6", tables=[table], series=[series])
    crash_at = 1.5
    for timeout in timeouts:
        params = PaxosParams(
            suspect_timeout_min=timeout,
            suspect_timeout_max=timeout * 2,
            # keep the lease legal under aggressive suspicion settings
            lease_duration=min(0.08, timeout * 0.5),
        )
        result = run_experiment(
            "speculative",
            seed=seed,
            clients=4,
            run_for=4.0,
            failures=FailureSchedule().crash(crash_at, "n1"),
            request_timeout=max(0.3, timeout),
            engine_params=params,
            trace=True,
        )
        gap = result.collector.unavailability(
            crash_at, min(crash_at + 2.0, result.ended_at)
        )
        campaigns = result.sim.trace.count("campaign")
        table.add_row(
            f"{timeout * 1000:.0f}",
            f"{gap * 1000:.0f}",
            f"{result.throughput():.0f}",
            max(0, campaigns - 2),  # initial election costs ~1-2 campaigns
        )
        series.add(timeout * 1000, gap * 1000)
        out.data[timeout] = {"gap": gap, "throughput": result.throughput()}
    return out


# ---------------------------------------------------------------------------
# T7 — leader-lease local reads
# ---------------------------------------------------------------------------


def exp_t7_leases(
    read_ratios: tuple[float, ...] = (0.5, 0.9, 0.99), seed: int = 42
) -> ExperimentOutput:
    """Lease (local) reads vs fully ordered reads across read ratios.

    A leaseholding leader serves reads from local state without a log
    round, cutting messages and latency on read-heavy workloads; the
    composition's cross-epoch guard (no lease reads in a sealed epoch)
    keeps this linearizable through reconfigurations — which the run
    includes, to keep the measurement honest.
    """
    table = Table(
        "T7: ordered reads vs leader-lease local reads (with one reconfig)",
        ["read ratio", "mode", "ops/s", "p50 (ms)", "msgs/op", "lease reads"],
    )
    out = ExperimentOutput("T7", tables=[table])
    for ratio in read_ratios:
        for mode in ("log", "lease"):
            result = run_experiment(
                "speculative",
                seed=seed,
                clients=4,
                run_for=3.0,
                read_ratio=ratio,
                read_mode=mode,
                schedule=[ReconfigStep(1.5, ("n1", "n2", "n4"))],
            )
            summary = result.collector.latency_summary()
            lease_reads = sum(
                getattr(replica, "lease_reads", 0)
                for replica in result.service.replicas.values()
            )
            table.add_row(
                f"{ratio:.0%}",
                mode,
                f"{result.throughput():.0f}",
                f"{summary.p50_ms:.2f}",
                f"{result.messages_per_op():.1f}",
                lease_reads,
            )
            out.data[(ratio, mode)] = {
                "throughput": result.throughput(),
                "p50_ms": summary.p50_ms,
                "msgs_per_op": result.messages_per_op(),
                "lease_reads": lease_reads,
            }
    return out


# ---------------------------------------------------------------------------
# T8 — leader-side batching ablation
# ---------------------------------------------------------------------------


def exp_t8_batching(
    delays_ms: tuple[float, ...] = (0.0, 1.0, 2.0, 5.0),
    clients: int = 16,
    seed: int = 42,
) -> ExperimentOutput:
    """Batch-delay sweep: message amortisation vs added latency.

    Leader-side batching shares one Phase-2 round trip across every
    command arriving while a slot is in flight. In simulation (where CPU
    is free) the win shows as message cost; the price is the wait behind
    that slot — at most a round trip or the window, whichever is shorter,
    since an idle pipeline never holds a command.
    """
    from repro.consensus.multipaxos import PaxosParams

    table = Table(
        f"T8: leader-side batching ({clients} closed-loop clients)",
        ["batch delay (ms)", "ops/s", "p50 (ms)", "msgs/op", "bytes/op"],
    )
    series = Series("T8: message cost vs batch delay", "delay (ms)", "msgs/op")
    out = ExperimentOutput("T8", tables=[table], series=[series])

    def params_for(delay_ms: float) -> PaxosParams:
        # The 0 ms cell is the ablation's baseline, one slot per command:
        # at the default batch_max even it shares a slot between commands
        # that reach the leader at the same instant.
        if delay_ms == 0:
            return PaxosParams(batch_max=1)
        return PaxosParams(batch_delay=delay_ms / 1000.0)

    for delay_ms in delays_ms:
        params = params_for(delay_ms)
        result = run_experiment(
            "speculative",
            seed=seed,
            clients=clients,
            run_for=2.5,
            engine_params=params,
            schedule=[ReconfigStep(1.2, ("n1", "n2", "n4"))],
        )
        summary = result.collector.latency_summary()
        table.add_row(
            f"{delay_ms:.1f}",
            f"{result.throughput():.0f}",
            f"{summary.p50_ms:.2f}",
            f"{result.messages_per_op():.1f}",
            f"{result.bytes_per_op():.0f}",
        )
        series.add(delay_ms, result.messages_per_op())
        out.data[delay_ms] = {
            "throughput": result.throughput(),
            "p50_ms": summary.p50_ms,
            "msgs_per_op": result.messages_per_op(),
        }

    # Second regime: CPU-bound replicas (150 µs of service time per
    # message). Here queueing dominates and batching turns from a
    # msgs-vs-latency trade into a straight win on both axes.
    cpu_table = Table(
        "T8b: the same sweep with CPU-bound replicas (150 µs/message)",
        ["batch delay (ms)", "ops/s", "p50 (ms)", "msgs/op"],
    )
    out.tables.append(cpu_table)
    for delay_ms in delays_ms:
        params = params_for(delay_ms)
        result = run_experiment(
            "speculative",
            seed=seed,
            clients=24,
            run_for=2.0,
            engine_params=params,
            processing_delay=0.00015,
        )
        summary = result.collector.latency_summary()
        cpu_table.add_row(
            f"{delay_ms:.1f}",
            f"{result.throughput():.0f}",
            f"{summary.p50_ms:.2f}",
            f"{result.messages_per_op():.1f}",
        )
        out.data[("cpu", delay_ms)] = {
            "throughput": result.throughput(),
            "p50_ms": summary.p50_ms,
            "msgs_per_op": result.messages_per_op(),
        }
    return out


ALL_EXPERIMENTS = {
    "F5": exp_f5_warmjoin,
    "T6": exp_t6_detector,
    "T7": exp_t7_leases,
    "T8": exp_t8_batching,
    "T1": exp_t1_overhead,
    "F1": exp_f1_timeline,
    "T2": exp_t2_statesize,
    "F2": exp_f2_storm,
    "T3": exp_t3_failover,
    "F3": exp_f3_latency,
    "T4": exp_t4_msgcost,
    "F4": exp_f4_ablation,
    "T5": exp_t5_blocks,
}
