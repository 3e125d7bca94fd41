"""The shared experiment runner.

:func:`run_experiment` builds a simulator, one of the comparable services
(the paper's speculative composition, the stop-the-world baseline, Raft,
or the raw static block), a measured client pool, an optional
reconfiguration schedule and failure schedule — runs it, and hands back a
:class:`RunResult` with every signal the tables and figures need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.kvstore import KvStateMachine
from repro.baselines.raft_service import RaftService
from repro.bench.rawstatic import RawPaxosService
from repro.consensus.interface import EngineFactory
from repro.consensus.multipaxos import MultiPaxosEngine
from repro.consensus.sequencer import SequencerEngine
from repro.core.client import ClientParams
from repro.core.reconfig import ReconfigParams
from repro.core.service import ReplicatedService
from repro.errors import ConfigurationError
from repro.faults import FailureSchedule
from repro.metrics.collectors import CommitCollector, CompletionCollector
from repro.sim.failures import FailureInjector
from repro.sim.network import LatencyModel
from repro.sim.runner import Simulator
from repro.workload.clients import ClientPool
from repro.workload.generators import KvOperationMix
from repro.workload.schedules import ReconfigStep

#: protocol kinds run_experiment understands.
KINDS = ("speculative", "stw", "raft", "raw-static")

#: clients start ``WARMUP`` simulated seconds in; collectors bin
#: completions ``BIN_WIDTH`` wide; a run drains for at most
#: ``DRAIN_BOUND`` simulated seconds after its clients stop issuing.
WARMUP = 0.3
BIN_WIDTH = 0.1
DRAIN_BOUND = 2.0


def _engine_factory(engine: str, engine_params=None) -> EngineFactory:
    if engine == "paxos":
        return MultiPaxosEngine.factory(engine_params)
    if engine == "sequencer":
        return SequencerEngine  # no parameters: the class is the factory
    raise ConfigurationError(f"unknown engine {engine!r}")


@dataclass(slots=True)
class RunResult:
    """Everything measured in one experiment run."""

    kind: str
    sim: Simulator
    service: Any
    pool: ClientPool
    commits: CommitCollector
    #: ordering events: when positions become final (== commits for Raft,
    #: where ordering and commitment coincide; ahead of commits for the
    #: speculative composition during hand-off).
    orders: CommitCollector
    started_at: float
    ended_at: float
    #: messages and bytes the network carried inside the measured window.
    window_messages: int
    window_bytes: int
    schedule: list[ReconfigStep] = field(default_factory=list)

    @property
    def collector(self) -> CompletionCollector:
        return self.pool.collector

    @property
    def duration(self) -> float:
        return self.ended_at - self.started_at

    def throughput(self) -> float:
        return self.collector.throughput(self.started_at, self.ended_at)

    def unavailability(self) -> float:
        return self.collector.unavailability(self.started_at, self.ended_at)

    def _window_ops(self) -> int:
        return max(1, self.collector.completed_between(self.started_at, self.ended_at))

    def messages_per_op(self) -> float:
        """Messages sent in the window per operation completed in it."""
        return self.window_messages / self._window_ops()

    def bytes_per_op(self) -> float:
        return self.window_bytes / self._window_ops()


def build_service(
    kind: str,
    sim: Simulator,
    members: list[str],
    app_factory: Callable[[], Any],
    engine: str = "paxos",
    pipeline_depth: int | None = None,
    commit_listener=None,
    order_listener=None,
    engine_params=None,
    read_mode: str = "log",
):
    """Construct the service named by ``kind`` (see :data:`KINDS`)."""
    if kind in ("speculative", "stw"):
        depth = 1 if kind == "stw" else pipeline_depth
        return ReplicatedService(
            sim,
            members,
            app_factory,
            params=ReconfigParams(
                engine_factory=_engine_factory(engine, engine_params),
                pipeline_depth=depth,
                read_mode=read_mode,
            ),
            commit_listener=commit_listener,
            order_listener=order_listener,
        )
    if kind == "raft":
        return RaftService(sim, members, app_factory, commit_listener=commit_listener)
    if kind == "raw-static":
        return RawPaxosService(
            sim, members, app_factory, _engine_factory(engine, engine_params)
        )
    raise ConfigurationError(f"unknown service kind {kind!r}")


def run_experiment(
    kind: str,
    *,
    seed: int = 42,
    members: tuple[str, ...] = ("n1", "n2", "n3"),
    clients: int = 4,
    ops_per_client: int | None = None,
    run_for: float = 5.0,
    read_ratio: float = 0.5,
    preload: int = 0,
    schedule: list[ReconfigStep] | None = None,
    failures: FailureSchedule | None = None,
    engine: str = "paxos",
    pipeline_depth: int | None = None,
    request_timeout: float = 0.5,
    latency: LatencyModel | None = None,
    trace: bool = False,
    engine_params=None,
    read_mode: str = "log",
    processing_delay: float = 0.0,
) -> RunResult:
    """Run one workload under one protocol; see DESIGN.md experiment index.

    ``run_for`` bounds the measured window after :data:`WARMUP`; it ends
    early when every ``ops_per_client`` budget ran out first. Clients stop
    issuing at its end, and the run drains until :func:`_drained` (a
    client still waiting at :data:`DRAIN_BOUND` gives up).
    """
    if kind not in KINDS:
        raise ConfigurationError(f"kind must be one of {KINDS}")
    sim = Simulator(seed=seed, latency=latency, trace_enabled=trace)

    def app_factory() -> KvStateMachine:
        app = KvStateMachine()
        if preload:
            app.preload(preload)
        return app

    commits = CommitCollector(bin_width=BIN_WIDTH)
    orders = CommitCollector(bin_width=BIN_WIDTH)

    def order_listener(time, payload, epoch, slot):
        orders.listener(time, payload, epoch, slot, None)

    service = build_service(
        kind,
        sim,
        list(members),
        app_factory,
        engine=engine,
        pipeline_depth=pipeline_depth,
        commit_listener=None if kind == "raw-static" else commits.listener,
        order_listener=None if kind in ("raw-static", "raft") else order_listener,
        engine_params=engine_params,
        read_mode=read_mode,
    )
    if kind == "raft":
        orders = commits  # Raft orders and commits in the same instant

    if processing_delay > 0.0:
        for replica in getattr(service, "replicas", {}).values():
            replica.processing_delay = processing_delay

    # 64-byte values over 64 keys, no compare-and-swap: the mix's defaults.
    mix = KvOperationMix(sim.rng.fork("mix"), read_ratio=read_ratio)
    pool = ClientPool(
        service,
        mix,
        count=clients,
        ops_per_client=ops_per_client,
        params=ClientParams(start_delay=WARMUP, request_timeout=request_timeout),
        bin_width=BIN_WIDTH,
    )

    if schedule:
        for step in schedule:
            service.reconfigure_at(step.time, list(step.members))
    if failures is not None:
        FailureInjector(sim, failures).arm()

    started_at = WARMUP
    ended_at = WARMUP + run_for
    stats = sim.network.stats
    at_start = [0, 0]  # a run over before its window starts counts it all

    def mark_start() -> None:
        at_start[:] = stats.messages_sent, stats.bytes_sent

    # Scheduled before the run arms the clients' start timers: it runs first.
    sim.at(started_at, mark_start)
    if ops_per_client is not None:
        sim.run_until(lambda: pool.all_finished, timeout=ended_at + 30.0)
        ended_at = min(ended_at, sim.now)
    else:
        sim.run(until=ended_at)
    window_messages = stats.messages_sent - at_start[0]
    window_bytes = stats.bytes_sent - at_start[1]
    for client in pool.clients:
        client.operations = lambda: None  # what is outstanding still completes
    sim.run_until(lambda: _drained(pool, service), timeout=DRAIN_BOUND)
    for client in pool.clients:
        client.finished = True  # what the bound cut off is abandoned

    return RunResult(
        kind=kind,
        sim=sim,
        service=service,
        pool=pool,
        commits=commits,
        orders=orders,
        started_at=started_at,
        ended_at=ended_at,
        window_messages=window_messages,
        window_bytes=window_bytes,
        schedule=list(schedule or []),
    )


def _drained(pool: ClientPool, service: Any) -> bool:
    """No client waits, and every up replica of a :class:`ReplicatedService`
    has caught up: members of the newest configuration have executed as far
    as the furthest replica, everyone else knows it is retired. (Raft and
    the raw static block have no such notion here.)"""
    if not pool.all_finished:
        return False
    if not isinstance(service, ReplicatedService):
        return True
    live = [r for r in service.replicas.values() if not r.crashed]
    configs = [r.newest_config for r in live if r.newest_config is not None]
    members = max(configs, key=lambda config: config.epoch).members if configs else ()
    furthest = max((r.virtual_index for r in live), default=0)
    return all(
        r.virtual_index == furthest if r.node in members else r.is_retired for r in live
    )
