"""Experiment definitions: one function per table/figure in DESIGN.md.

The brief announcement carries no quantitative evaluation, so these
experiments *are* the evaluation a full paper would have run — they
exercise each claim: negligible steady-state overhead (T1), ordering that
never stops during reconfiguration (F1), state-size-independent ordering
latency (T2), liveness under reconfiguration storms (F2/F4), failover via
reconfiguration (T3), bounded tail latency (F3), message cost (T4), and
block-agnosticism (T5).

Every experiment is a grid declaration run by :func:`sweep`: each cell is
one :func:`run_experiment` call (or the experiment's own run function),
every named metric is read once from it — the generic ones from
:data:`METRICS`, the experiment's own beside them — and the same values
fill ``out.data[cell]`` (which the benchmark suite asserts shape
properties against: who wins, by roughly what factor) and the table row.
:data:`REGISTRY` lists the experiments with their summaries and
``--quick`` grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.apps.kvstore import KvStateMachine
from repro.bench.harness import RunResult, run_experiment
from repro.consensus.multipaxos import PaxosParams
from repro.core.client import ClientParams
from repro.core.service import ReplicatedService
from repro.faults import FailureSchedule
from repro.metrics.report import Series, Table
from repro.metrics.stats import summarize_latencies
from repro.sim.network import LatencyModel
from repro.sim.runner import Simulator
from repro.types import node_id
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


class Metric(NamedTuple):
    """How one number is read from a cell's run and printed in its row."""

    read: Callable[[Any], Any]
    fmt: str = ""
    #: the cell prints ``value * scale`` (seconds stored, milliseconds shown)
    scale: int = 1

    def cell(self, value: Any) -> str:
        return format(value if self.scale == 1 else value * self.scale, self.fmt)


def _latency(name: str, fmt: str) -> Metric:
    return Metric(lambda r: getattr(r.collector.latency_summary(), name), fmt)


def _gap(since: float | None = None, span: float = 0.0) -> Metric:
    """Longest reply gap over ``[since, since + span]`` (the whole run if None)."""
    if since is None:
        return Metric(RunResult.unavailability, ".0f", 1000)
    return Metric(
        lambda r: r.collector.unavailability(since, min(since + span, r.ended_at)),
        ".0f",
        1000,
    )


def _reconfig_progress(result: RunResult) -> str:
    service = result.service
    if hasattr(service, "newest_epoch"):
        return f"epoch {service.newest_epoch()}"
    if hasattr(service, "applied_membership"):
        return f"members {service.applied_membership()}"
    return "-"


#: the generic properties of one run, by the name ``out.data`` stores them under.
METRICS = {
    "throughput": Metric(RunResult.throughput, ".0f"),
    "latency": Metric(lambda r: r.collector.latency_summary()),
    "ops": _latency("count", ""),
    "mean_ms": _latency("mean_ms", ".2f"),
    "p50_ms": _latency("p50_ms", ".2f"),
    "p95_ms": _latency("p95_ms", ".2f"),
    "p99_ms": _latency("p99_ms", ".2f"),
    "max_ms": _latency("max_ms", ".0f"),
    "msgs_per_op": Metric(RunResult.messages_per_op, ".1f"),
    "bytes_per_op": Metric(RunResult.bytes_per_op, ".0f"),
    "gap": _gap(),
    "progress": Metric(_reconfig_progress),
}


def sweep(
    out: ExperimentOutput,
    table: Table,
    grid: dict,
    show: tuple[str, ...],
    keep: tuple[str, ...] | str | None = None,
    run: Callable[..., Any] = run_experiment,
    **own: Metric,
) -> dict:
    """Run every cell of ``grid`` once: one table row, one ``out.data`` entry.

    ``grid`` maps a cell key to ``(row label cells, run kwargs)``. Each
    metric named in ``show`` (the row's cells after its label), in ``keep``
    (stored as ``out.data[key]``; defaults to ``show``, and one name stores
    the bare value) or in ``own`` (the experiment's own metrics, read beside
    :data:`METRICS`) is read once from what ``run(**kwargs)`` returns.
    Returns every value read, per cell, for series built after the sweep.
    """
    metrics = {**METRICS, **own}
    keep = show if keep is None else keep
    stored = (keep,) if isinstance(keep, str) else keep
    names = dict.fromkeys((*show, *stored, *own))
    values: dict = {}
    for key, (label, kwargs) in grid.items():
        outcome = run(**kwargs)
        row = values[key] = {name: metrics[name].read(outcome) for name in names}
        out.data[key] = row[keep] if isinstance(keep, str) else {n: row[n] for n in keep}
        table.add_row(*label, *(metrics[name].cell(row[name]) for name in show))
    return values


def exp_t1_overhead(
    sizes: tuple[int, ...] = (3, 5, 7), run_for: float = 3.0, seed: int = 42
) -> ExperimentOutput:
    """T1: throughput/latency with NO reconfigurations, cluster size sweep."""
    table = Table(
        "T1: steady-state overhead (no reconfigurations)",
        ["protocol", "n", "throughput (op/s)", "p50 (ms)", "p99 (ms)", "msgs/op"],
    )
    out = ExperimentOutput("T1", tables=[table])
    grid = {
        (kind, n): ((PROTOCOL_LABELS[kind], n), dict(
            kind=kind, seed=seed, members=tuple(f"n{i + 1}" for i in range(n)),
            clients=4, run_for=run_for,
        ))
        for n in sizes
        for kind in ("raw-static", "speculative", "stw", "raft")
    }
    sweep(out, table, grid, ("throughput", "p50_ms", "p99_ms", "msgs_per_op"))
    return out


def exp_f1_timeline(
    preload: int = 60_000,
    reconfig_at: float = 2.0,
    run_for: float = 5.0,
    seed: int = 42,
) -> ExperimentOutput:
    """F1: migrate 2 of 3 members at once; watch committed throughput.

    The new quorum depends on joining nodes, so the hand-off sits on the
    critical path: stop-the-world stalls for the transfer, the speculative
    pipeline keeps ordering. Raft performs the equivalent migration as a
    sequence of single-server changes.
    """
    table = Table(
        "F1 summary: service interruption around the migration",
        ["protocol", "longest reply gap after reconfig (ms)", "ops/s during hand-off"],
    )
    out = ExperimentOutput("F1", tables=[table])

    def timeline(r: RunResult) -> Series:
        series = Series(f"F1: committed throughput over time — {PROTOCOL_LABELS[r.kind]}",
                        "t (s)", "ops/s")
        half_bin = r.collector.timeline.bin_width / 2
        for t, rate in r.collector.timeline.series(r.started_at, r.ended_at):
            series.add(t, rate, "reconfig ->" if abs(t - reconfig_at) < half_bin else "")
        return series

    grid = {
        kind: ((PROTOCOL_LABELS[kind],), dict(
            kind=kind, seed=seed, clients=6, run_for=run_for, preload=preload,
            schedule=[ReconfigStep(reconfig_at, ("n1", "n4", "n5"))],
            latency=TRANSFER_LATENCY,
        ))
        for kind in PROTOCOLS
    }
    values = sweep(
        out, table, grid,
        show=("gap_after_reconfig", "during"),
        keep=("gap_after_reconfig", "throughput", "during"),
        gap_after_reconfig=_gap(reconfig_at, 2.0),
        during=Metric(lambda r: r.collector.throughput(
            reconfig_at, min(reconfig_at + 2.0, r.ended_at)), ".0f"),
        timeline=Metric(timeline),
    )
    out.series.extend(row["timeline"] for row in values.values())
    return out


def _snapshot_mb(entries: int) -> str:
    """The snapshot size of ``entries`` preloaded 64-byte values, in MB."""
    kv = KvStateMachine(value_bytes=64)
    kv.preload(entries)
    return f"{kv.snapshot_bytes() / 1e6:.2f}"


def exp_t2_statesize(
    preloads: tuple[int, ...] = (1_000, 30_000, 120_000),
    reconfig_at: float = 1.5,
    seed: int = 42,
) -> ExperimentOutput:
    """T2: replace the whole quorum; how long until the new epoch serves?

    Measured from the reconfiguration request to the first client reply
    produced by the new configuration. The speculative pipeline overlaps
    ordering with the transfer; stop-the-world pays the full transfer
    before ordering starts, so its latency grows with state size.
    """
    table = Table(
        "T2: hand-off latency vs state size (full quorum replacement)",
        ["protocol", "state entries", "snapshot (MB)", "ordering resumes in new epoch (ms)",
         "first reply from new epoch (ms)", "reply gap (ms)"],
    )
    out = ExperimentOutput("T2", tables=[table])

    def epoch_1_after(collector: str) -> Metric:
        # Seconds from the request to the first new-epoch event (the end of
        # the run if there was none).
        def read(r: RunResult) -> float:
            first = getattr(r, collector).first_commit_in_epoch(1)
            return (r.ended_at if first is None else first) - reconfig_at

        return Metric(read, ".0f", 1000)

    grid = {
        (kind, preload): ((PROTOCOL_LABELS[kind], preload, _snapshot_mb(preload)), dict(
            kind=kind, seed=seed, clients=4, run_for=reconfig_at + 4.0,
            preload=preload,
            schedule=full_replacement(["n1", "n2", "n3"], at=reconfig_at, first_fresh=4),
            latency=TRANSFER_LATENCY,
        ))
        for preload in preloads
        for kind in ("speculative", "stw")
    }
    sweep(
        out, table, grid, ("order_resume", "first_reply", "gap"),
        order_resume=epoch_1_after("orders"),
        first_reply=epoch_1_after("commits"),
        gap=_gap(reconfig_at, 3.0),
    )
    return out


def exp_f2_storm(
    intervals: tuple[float, ...] = (1.0, 0.5, 0.25, 0.1),
    rounds: int = 6,
    preload: int = 40_000,
    seed: int = 42,
) -> ExperimentOutput:
    """F2: migration storms at increasing rate: who stays live?

    Each round keeps one member and replaces the other two, so every new
    quorum depends on joiners whose state is still in flight — the
    hand-off sits squarely on the critical path, round after round.
    """
    table = Table(
        "F2 summary: migration storms (2 of 3 replaced every interval)",
        ["protocol", "interval (s)", "ops/s", "longest reply gap (ms)", "epochs/steps"],
    )
    out = ExperimentOutput("F2", tables=[table])
    grid = {
        (kind, interval): ((PROTOCOL_LABELS[kind], interval), dict(
            kind=kind, seed=seed, clients=4, run_for=1.0 + rounds * interval + 3.0,
            preload=preload, latency=TRANSFER_LATENCY,
            schedule=migration_storm(
                ["n1", "n2", "n3"], start=1.0, interval=interval,
                count=rounds, first_fresh=4,
            ),
        ))
        for interval in intervals
        for kind in PROTOCOLS
    }
    sweep(out, table, grid, ("throughput", "gap", "progress"), keep=("throughput", "gap"))
    chart = {kind: Series(
        f"F2: throughput under reconfig storms — {PROTOCOL_LABELS[kind]}",
        "interval (s)",
        "ops/s",
    ) for kind in PROTOCOLS}
    for (kind, interval), row in out.data.items():
        chart[kind].add(interval, row["throughput"])
    out.series.extend(chart.values())
    return out


def exp_t3_failover(seed: int = 42, preload: int = 20_000) -> ExperimentOutput:
    """T3: crash a member, reconfigure a replacement in; measure the outage."""
    table = Table(
        "T3: crash + replacement via reconfiguration",
        ["protocol", "crashed", "reply gap (ms)", "ops/s overall", "recovered members"],
    )
    out = ExperimentOutput("T3", tables=[table])
    crash_at, reconfig_at = 1.5, 1.7
    grid = {
        (kind, label): ((PROTOCOL_LABELS[kind], f"{crashed} ({label})"), dict(
            kind=kind, seed=seed, clients=4, run_for=5.0, preload=preload,
            schedule=[ReconfigStep(reconfig_at, tuple(
                [n for n in ("n1", "n2", "n3") if n != crashed] + ["n4"]))],
            failures=FailureSchedule().crash(crash_at, crashed),
            latency=TRANSFER_LATENCY, request_timeout=0.3,
        ))
        for crashed, label in (("n3", "follower"), ("n1", "likely leader"))
        for kind in PROTOCOLS
    }
    sweep(
        out, table, grid, ("gap", "throughput", "progress"), keep=("gap", "throughput"),
        gap=_gap(crash_at, 3.0),
    )
    return out


def exp_f3_latency(
    period: float = 1.0, rounds: int = 5, preload: int = 40_000, seed: int = 42
) -> ExperimentOutput:
    """F3: latency distribution while the membership rolls every ``period``."""
    table = Table(
        f"F3: client latency with a rolling replacement every {period}s",
        ["protocol", "ops", "mean (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)", "max (ms)"],
    )
    out = ExperimentOutput("F3", tables=[table])

    def p99_per_bin(r: RunResult, width: float = 0.25) -> Series:
        series = Series(
            f"F3: p99 latency per 250ms — {PROTOCOL_LABELS[r.kind]}", "t (s)", "p99 (ms)"
        )
        t = r.started_at
        while t < r.ended_at:
            window = r.collector.latencies_between(t, t + width)
            if window:
                series.add(t, summarize_latencies(window).p99_ms)
            t += width
        return series

    grid = {
        kind: ((PROTOCOL_LABELS[kind],), dict(
            kind=kind, seed=seed, clients=4, run_for=1.0 + rounds * period + 2.0,
            preload=preload, latency=TRANSFER_LATENCY,
            schedule=storm(["n1", "n2", "n3"], 1.0, period, rounds, first_fresh=4),
        ))
        for kind in PROTOCOLS
    }
    values = sweep(
        out, table, grid, ("ops", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"),
        keep="latency", p99_per_bin=Metric(p99_per_bin),
    )
    out.series.extend(row["p99_per_bin"] for row in values.values())
    return out


def _t4_runs(kind: str, seed: int, ops: int) -> dict[str, RunResult]:
    # Three rolling replacements timed to land while the finite workload
    # is still in flight (≈0.3–1.5 s at these rates).
    schedule = storm(["n1", "n2", "n3"], 0.5, 0.3, 3, first_fresh=4)
    loaded = dict(kind=kind, seed=seed, clients=4, ops_per_client=ops // 4, run_for=30.0)
    # Per-reconfiguration cost measured on an *idle* service over a fixed
    # window, so duration-proportional chatter (heartbeats, probes)
    # cancels out of the difference exactly.
    idle = dict(kind=kind, seed=seed, clients=0, run_for=3.0)
    return {
        "steady": run_experiment(**loaded),
        "reconfig": run_experiment(**loaded, schedule=schedule),
        "idle": run_experiment(**idle),
        "idle+reconfig": run_experiment(**idle, schedule=schedule),
    }


def _in_run(run: str, name: str) -> Metric:
    """The generic metric ``name`` of one of a cell's several runs."""
    read, fmt, scale = METRICS[name]
    return Metric(lambda runs: read(runs[run]), fmt, scale)


def _extra_messages(runs: dict[str, RunResult]) -> float:
    idle, reconfig = runs["idle"], runs["idle+reconfig"]
    return (
        reconfig.sim.network.stats.messages_sent - idle.sim.network.stats.messages_sent
    ) / 3.0


def exp_t4_msgcost(seed: int = 42, ops: int = 1200) -> ExperimentOutput:
    """T4: messages and bytes per op, steady state and with reconfigurations."""
    table = Table(
        "T4: message cost",
        ["protocol", "msgs/op (steady)", "bytes/op (steady)", "msgs/op (3 reconfigs)",
         "extra msgs per reconfig"],
    )
    out = ExperimentOutput("T4", tables=[table])
    grid = {
        kind: ((PROTOCOL_LABELS[kind],), dict(kind=kind, seed=seed, ops=ops))
        for kind in PROTOCOLS
    }
    sweep(
        out, table, grid,
        ("steady_msgs_per_op", "steady_bytes_per_op", "reconfig_msgs_per_op",
         "extra_per_reconfig"),
        run=_t4_runs,
        steady_msgs_per_op=_in_run("steady", "msgs_per_op"),
        steady_bytes_per_op=_in_run("steady", "bytes_per_op"),
        reconfig_msgs_per_op=_in_run("reconfig", "msgs_per_op"),
        extra_per_reconfig=Metric(_extra_messages, ".0f"),
    )
    return out


def exp_f4_ablation(
    depths: tuple[int | None, ...] = (1, 2, 3, None),
    interval: float = 0.25,
    rounds: int = 6,
    preload: int = 40_000,
    seed: int = 42,
) -> ExperimentOutput:
    """F4: sweep the pipeline-depth gate under a migration storm (1 = STW)."""
    table = Table(
        f"F4: pipeline-depth ablation (2-of-3 migration every {interval}s)",
        ["pipeline depth", "ops/s", "longest reply gap (ms)", "final epoch"],
    )
    series = Series(
        "F4: storm throughput vs speculation pipeline depth",
        "depth (0 = unbounded)",
        "ops/s",
    )
    out = ExperimentOutput("F4", tables=[table], series=[series])
    grid = {
        depth: (("unbounded" if depth is None else str(depth),), dict(
            kind="speculative", seed=seed, clients=4,
            run_for=1.0 + rounds * interval + 3.0, preload=preload,
            schedule=migration_storm(
                ["n1", "n2", "n3"], 1.0, interval, rounds, first_fresh=4
            ),
            latency=TRANSFER_LATENCY, pipeline_depth=depth,
        ))
        for depth in depths
    }
    sweep(out, table, grid, ("throughput", "gap", "progress"), keep=("throughput", "gap"))
    for depth, row in out.data.items():
        label = "unbounded" if depth is None else str(depth)
        series.add(0 if depth is None else depth, row["throughput"], label)
    return out


def exp_t5_blocks(seed: int = 42, preload: int = 10_000) -> ExperimentOutput:
    """T5: the same reconfiguration workload over two building blocks."""
    table = Table(
        "T5: the composition over interchangeable static blocks",
        ["building block", "ops/s", "p99 (ms)", "msgs/op", "final epoch"],
    )
    out = ExperimentOutput("T5", tables=[table])
    grid = {
        engine: ((label,), dict(
            kind="speculative", seed=seed, clients=4, run_for=1.0 + 3 * 0.8 + 2.0,
            preload=preload, engine=engine,
            schedule=storm(["n1", "n2", "n3"], 1.0, 0.8, 3, first_fresh=4),
        ))
        for engine, label in (("paxos", "multi-paxos (fault tolerant)"),
                              ("sequencer", "single sequencer (not fault tolerant)"))
    }
    sweep(
        out, table, grid, ("throughput", "p99_ms", "msgs_per_op", "progress"),
        keep=("throughput", "p99_ms", "msgs_per_op"),
    )
    return out


def _join_ready(preload: int, warm: bool, seed: int) -> float:
    """Seconds from the RECONFIGURE adding ``w1`` to its start state (30 if never)."""
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


def exp_f5_warmjoin(
    preloads: tuple[int, ...] = (10_000, 40_000, 120_000), seed: int = 42
) -> ExperimentOutput:
    """F5: promotion of a pre-warmed observer vs a cold joiner.

    An observer streams the virtual log before being added; at promotion
    its boundary state is already local, so the join latency is flat in
    state size, while a cold joiner pays the full snapshot transfer.
    """
    table = Table(
        "F5: join readiness latency — warm standby vs cold joiner",
        ["join mode", "state entries", "join ready after (ms)"],
    )
    series = Series("F5: join latency vs state size", "entries", "ms")
    out = ExperimentOutput("F5", tables=[table], series=[series])
    grid = {
        (label, preload): ((label, preload), dict(preload=preload, warm=warm, seed=seed))
        for preload in preloads
        for warm, label in ((True, "warm (observer)"), (False, "cold (snapshot)"))
    }
    sweep(
        out, table, grid, ("ready",), keep="ready", run=_join_ready,
        ready=Metric(lambda latency: latency, ".0f", 1000),
    )
    for (label, preload), latency in out.data.items():
        series.add(preload, latency * 1000, label)
    return out


def exp_t6_detector(
    timeouts: tuple[float, ...] = (0.05, 0.1, 0.2, 0.4), seed: int = 42
) -> ExperimentOutput:
    """T6: sweep the heartbeat suspicion timeout: failover speed vs stability.

    The suspect timeout is the classic availability/stability dial of any
    leader-based SMR: short timeouts fail over fast but risk spurious
    elections; long timeouts are calm but slow to react. This ablation
    crashes the leader mid-run and measures the client-visible outage for
    each setting, plus steady-state throughput (to expose any instability
    cost of aggressive settings).
    """
    table = Table(
        "T6: suspect-timeout ablation (leader crash at t=1.5s)",
        ["suspect timeout (ms)", "reply gap (ms)", "ops/s", "spurious campaigns"],
    )
    series = Series("T6: failover outage vs suspect timeout", "timeout (ms)", "gap (ms)")
    out = ExperimentOutput("T6", tables=[table], series=[series])
    crash_at = 1.5
    grid = {
        timeout: ((f"{timeout * 1000:.0f}",), dict(
            kind="speculative", seed=seed, clients=4, run_for=4.0,
            failures=FailureSchedule().crash(crash_at, "n1"),
            request_timeout=max(0.3, timeout), trace=True,
            engine_params=PaxosParams(
                suspect_timeout_min=timeout,
                # keep the lease legal under aggressive suspicion settings
                lease_duration=min(0.08, timeout * 0.5),
            ),
        ))
        for timeout in timeouts
    }
    sweep(
        out, table, grid, ("gap", "throughput", "campaigns"), keep=("gap", "throughput"),
        gap=_gap(crash_at, 2.0),
        # the initial election costs ~1-2 campaigns
        campaigns=Metric(lambda r: max(0, r.sim.trace.count("campaign") - 2)),
    )
    for timeout, row in out.data.items():
        series.add(timeout * 1000, row["gap"] * 1000)
    return out


def exp_t7_leases(
    read_ratios: tuple[float, ...] = (0.5, 0.9, 0.99), seed: int = 42
) -> ExperimentOutput:
    """T7: lease (local) reads vs fully ordered reads across read ratios.

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
    grid = {
        (ratio, mode): ((f"{ratio:.0%}", mode), dict(
            kind="speculative", seed=seed, clients=4, run_for=3.0,
            read_ratio=ratio, read_mode=mode,
            schedule=[ReconfigStep(1.5, ("n1", "n2", "n4"))],
        ))
        for ratio in read_ratios
        for mode in ("log", "lease")
    }
    sweep(
        out, table, grid, ("throughput", "p50_ms", "msgs_per_op", "lease_reads"),
        lease_reads=Metric(lambda r: sum(
            getattr(replica, "lease_reads", 0) for replica in r.service.replicas.values()
        )),
    )
    return out


def exp_t8_batching(
    delays_ms: tuple[float, ...] = (0.0, 1.0, 2.0, 5.0),
    clients: int = 16,
    seed: int = 42,
) -> ExperimentOutput:
    """T8: batch-delay sweep: message amortisation vs added latency.

    Leader-side batching shares one Phase-2 round trip across every
    command arriving while a slot is in flight. In simulation (where CPU
    is free) the win shows as message cost; the price is the wait behind
    that slot — at most a round trip or the window, whichever is shorter,
    since an idle pipeline never holds a command.
    """
    table = Table(
        f"T8: leader-side batching ({clients} closed-loop clients)",
        ["batch delay (ms)", "ops/s", "p50 (ms)", "msgs/op", "bytes/op"],
    )
    # Second regime: CPU-bound replicas (150 µs of service time per
    # message). Here queueing dominates and batching turns from a
    # msgs-vs-latency trade into a straight win on both axes.
    cpu_table = Table(
        "T8b: the same sweep with CPU-bound replicas (150 µs/message)",
        ["batch delay (ms)", "ops/s", "p50 (ms)", "msgs/op"],
    )
    series = Series("T8: message cost vs batch delay", "delay (ms)", "msgs/op")
    out = ExperimentOutput("T8", tables=[table, cpu_table], series=[series])

    def params_for(delay_ms: float) -> PaxosParams:
        # The 0 ms cell is the ablation's baseline, one slot per command:
        # at the default batch_max even it shares a slot between commands
        # that reach the leader at the same instant.
        if delay_ms == 0:
            return PaxosParams(batch_max=1)
        return PaxosParams(batch_delay=delay_ms / 1000.0)

    kept = ("throughput", "p50_ms", "msgs_per_op")
    sweep(out, table, {
        delay_ms: ((f"{delay_ms:.1f}",), dict(
            kind="speculative", seed=seed, clients=clients, run_for=2.5,
            engine_params=params_for(delay_ms),
            schedule=[ReconfigStep(1.2, ("n1", "n2", "n4"))],
        ))
        for delay_ms in delays_ms
    }, (*kept, "bytes_per_op"), keep=kept)
    for delay_ms in delays_ms:
        series.add(delay_ms, out.data[delay_ms]["msgs_per_op"])
    sweep(out, cpu_table, {
        ("cpu", delay_ms): ((f"{delay_ms:.1f}",), dict(
            kind="speculative", seed=seed, clients=24, run_for=2.0,
            engine_params=params_for(delay_ms), processing_delay=0.00015,
        ))
        for delay_ms in delays_ms
    }, kept)
    return out


class Experiment(NamedTuple):
    """One registry row: what ``python -m repro list`` and ``run`` need."""

    run: Callable[..., ExperimentOutput]
    #: reduced parameters for ``--quick`` runs (still shape-preserving)
    quick: dict
    summary: str


REGISTRY = {
    "T1": Experiment(exp_t1_overhead, {"sizes": (3, 5), "run_for": 1.5},
                     "steady-state overhead of the composition (cluster-size sweep)"),
    "F1": Experiment(exp_f1_timeline, {"preload": 30_000, "run_for": 4.0},
                     "throughput timeline through one migration"),
    "T2": Experiment(exp_t2_statesize, {"preloads": (1_000, 60_000)},
                     "hand-off latency vs state size (the headline claim)"),
    "F2": Experiment(exp_f2_storm, {"intervals": (1.0, 0.25), "rounds": 4},
                     "reconfiguration storms: liveness under bursts"),
    "T3": Experiment(exp_t3_failover, {"preload": 10_000},
                     "crash + replacement availability"),
    "F3": Experiment(exp_f3_latency, {"rounds": 3, "preload": 20_000},
                     "client latency percentiles under periodic reconfiguration"),
    "T4": Experiment(exp_t4_msgcost, {"ops": 200},
                     "message & byte cost per op / per reconfiguration"),
    "F4": Experiment(exp_f4_ablation, {"depths": (1, None), "rounds": 4},
                     "ablation: speculation pipeline depth"),
    "T5": Experiment(exp_t5_blocks, {"preload": 5_000},
                     "block-agnosticism: multi-paxos vs sequencer blocks"),
    "F5": Experiment(exp_f5_warmjoin, {"preloads": (10_000, 80_000)},
                     "warm standby (observer) promotion vs cold join"),
    "T6": Experiment(exp_t6_detector, {"timeouts": (0.05, 0.2)},
                     "failure-detector sensitivity ablation"),
    "T7": Experiment(exp_t7_leases, {"read_ratios": (0.9,)},
                     "leader-lease local reads vs ordered reads"),
    "T8": Experiment(exp_t8_batching, {"delays_ms": (0.0, 2.0), "clients": 8},
                     "leader-side batching ablation"),
}
ALL_EXPERIMENTS = {name: row.run for name, row in REGISTRY.items()}
QUICK_ARGS = {name: row.quick for name, row in REGISTRY.items()}
