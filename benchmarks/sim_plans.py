"""Run the storm plans in the simulator, each through the gate.

A :class:`~repro.net.storm.StormPlan` is one plan for both backends.
A single-group plan's initial members, reconfiguration steps and
failure schedule go to :func:`~repro.bench.harness.run_experiment` as
they are, with no adapter and no action left out, and the run is gated
by :func:`~repro.verify.suite.verify_run` - Wing-Gong, the structural
invariants, the log replay and the liveness check against the plan. A
sharded plan (``shard``, ``director``) runs on a :class:`World`: data
groups ``g1`` and ``g2`` and a 3-replica metadir group on one simulator,
driven by two :class:`SimShardClient`\\ s (the sim driver of the live
client's :class:`~repro.shard.client.ShardRouter`). It is
gated by Wing-Gong over their merged history, each group's structural
invariants and replay, the map chain, every step done and no op left
pending (``shard``: ``g2`` owns a range); its longest stall is reported,
not gated, since the director cell's hold is part of its plan. A run
that fails prints its plan's ``to_json``, which is the repro:

    PYTHONPATH=src python benchmarks/sim_plans.py FIRST_SEED LAST_SEED

runs every cell for every seed in the inclusive range and exits 1 if any
run fails; the last line gives the wall time and the plans run a minute.
"""

from __future__ import annotations

import itertools
import sys
import time
from typing import Any, Callable, Iterable

from repro.apps.shardkv import ShardedKvStateMachine
from repro.bench.harness import DRAIN_BOUND, RunResult, run_experiment
from repro.core.client import (
    Client,
    ClientCore,
    ClientParams,
    ClientReply,
    OperationSource,
    OpRecord,
    Outstanding,
    Requester,
)
from repro.core.runtime import Runtime
from repro.core.service import ReplicatedService
from repro.errors import VerificationError
from repro.net.storm import (
    SCENARIOS,
    SHARD_STORM_SCENARIOS,
    StormPlan,
    availability_windows,
    build_storm_plan,
)
from repro.shard.client import READ, RETRY, ShardRouter
from repro.shard.messages import WrongShard
from repro.shard.metadir import IntentDriver, MetaDirStateMachine
from repro.shard.shardmap import HASH_SPACE, GroupInfo, ShardMap
from repro.shard.storm import (
    DIRECTOR_HOLD_MS,
    DIRECTOR_TAKEOVER_MS,
    check_chain_linear,
)
from repro.sim.node import Process
from repro.sim.runner import Simulator
from repro.types import ClientId, Command, CommandId, NodeId
from repro.verify.histories import History
from repro.verify.linearizability import check_kv_linearizable
from repro.verify.suite import VerificationReport, verify_run

#: every cell, single-group and sharded.
CELLS = SCENARIOS

#: the clients' retry interval; a stall may last two of them.
REQUEST_TIMEOUT = 0.5

#: the live sharded cells' workload: keys, workers, and the share of writes.
SHARD_KEYS, SHARD_WORKERS, SHARD_WRITES = 12, 2, 0.7

#: the keys the director tests write before a split, and the director
#: records a move costs.
KEYS = [f"k{i:02d}" for i in range(24)]
DIRECTOR_OPS = ("dir_claim", "dir_step", "dir_complete", "dir_abort")


def run_plan(cell: str, seed: int) -> tuple[StormPlan, Any, VerificationReport]:
    """Build ``cell``'s plan for ``seed``, run it in the simulator with two
    clients for the plan's duration (the run returns drained), and verify
    it (raises :class:`~repro.errors.VerificationError`). The middle value
    is the :class:`~repro.bench.harness.RunResult`, or the :class:`World`
    of a sharded cell."""
    if cell in SHARD_STORM_SCENARIOS:
        return run_shard_plan(cell, seed)
    plan = build_storm_plan(cell, seed=seed)
    result: RunResult = run_experiment(
        "speculative",
        seed=seed,
        members=plan.initial,
        schedule=plan.steps,
        failures=plan.schedule,
        clients=2,
        run_for=plan.duration,
        request_timeout=REQUEST_TIMEOUT,
    )
    report = verify_run(
        result.service.replicas.values(),
        result.pool.clients,
        plan=plan,
        window=(result.started_at, result.ended_at),
    )
    return plan, result, report


class _Lane(Requester):
    """One group's retry chain for a :class:`SimShardClient`, on one lane
    named as the node (``<name>@<group>``, the live wire identity). It
    keeps a record of every reply, :class:`WrongShard` answers included,
    for the group's replay oracle."""

    def __init__(
        self, sim: Runtime, name: str, view: Iterable[NodeId], rng: Any,
        request_timeout: float, answered: Callable[[Any], None],
    ):
        super().__init__(sim, NodeId(name), ClientCore(view, rng), request_timeout)
        self.core.use_lanes([ClientId(name)])
        self.records: list[OpRecord] = []
        self._answered = answered

    def call(self, op: str, args: tuple, size: int, invoked_at: float) -> None:
        self._send(self.core.issue(
            lambda cid: Command(cid, op, args, size), invoked_at
        ))

    def completed(self, entry: Outstanding, reply: ClientReply) -> None:
        command = entry.command
        self.records.append(OpRecord(
            reply.cid, command.op, command.args, entry.invoked_at, self.now,
            reply.value, entry.retries,
        ))
        self._answered(reply.value)


class SimShardClient(Process):
    """A closed-loop sharded client: the :class:`ShardRouter`'s sim driver.

    One operation at a time, recorded under the client's own identity
    (``records`` and ``core.outstanding``, as
    :meth:`~repro.verify.histories.History.from_clients` reads them)
    and sent under ``<name>@<group>`` on a :class:`_Lane` per group; map
    reads are ``dir_map`` on the metadir group through a lane of their
    own. The router decides what follows every reply.
    """

    def __init__(
        self,
        sim: Runtime,
        name: str,
        shard_map: ShardMap,
        directors: Iterable[NodeId],
        operations: OperationSource,
        request_timeout: float = 0.5,
    ):
        super().__init__(sim, NodeId(name))
        self.client = ClientId(name)
        self.operations = operations
        self.request_timeout = request_timeout
        self.router = ShardRouter(shard_map)
        self._rng = sim.rng.fork(f"client/{name}")
        self.core = ClientCore((), self._rng)
        self.core.use_lanes([self.client])
        self.records: list[OpRecord] = []
        #: the operation source ran dry and nothing is outstanding.
        self.finished = False
        self.lanes: dict[str, _Lane] = {}
        self.reader = self._lane(f"{name}-map", directors, self._read)

    def _lane(self, name: str, view: Iterable[NodeId], answered: Callable) -> _Lane:
        return _Lane(self.sim, name, view, self._rng, self.request_timeout, answered)

    def on_start(self) -> None:
        self._issue()

    def _issue(self) -> None:
        operation = self.operations()
        if operation is None:
            self.finished = True
            return
        op, args, size = operation
        self.core.issue(lambda cid: Command(cid, op, args, size), self.now)
        self._place()

    def _place(self) -> None:
        (entry,) = self.core.outstanding.values()
        group, _ = self.router.route(str(entry.command.args[0]))
        lane = self.lanes.get(group)
        if lane is None:
            info = self.router.shard_map.group_info(group)
            lane = self.lanes[group] = self._lane(
                f"{self.client}@{group}", info.members, self._answered
            )
        command = entry.command
        lane.call(command.op, command.args, command.size, entry.invoked_at)

    def _answered(self, value: Any) -> None:
        if isinstance(value, WrongShard):
            self._do(self.router.redirected(value))
            return
        (entry,) = self.core.outstanding.values()
        self.core.replied(entry.command.cid)
        command = entry.command
        self.records.append(OpRecord(
            command.cid, command.op, command.args, entry.invoked_at, self.now,
            value, 0,
        ))
        self.set_timer(0.0, self._issue, label="next-op")

    def _read(self, value: Any) -> None:
        self._do(self.router.read(value if isinstance(value, ShardMap) else None))

    def _do(self, step: str) -> None:
        if step == READ:
            self.reader.call("dir_map", (), 64, self.now)
        elif step == RETRY:
            self._place()
        else:
            self.set_timer(self.router.backoff, self._place, label="shard-backoff")


class World:
    """The sharded service on one :class:`Simulator`.

    Data groups ``g1`` (serving the whole keyspace; ``g1-n1``...) and
    ``g2`` (a spare) and a metadir group ``d1..d3``, whose replicas each
    run an :class:`IntentDriver` as a companion process. Node names are
    unique across groups, so the simulator routes by name; the map's
    addresses stand in for the book a live map carries.
    """

    def __init__(self, seed: int, *, directors: int = 3, hold: float = 0.0,
                 takeover: float = 1.5):
        self.sim = Simulator(seed=seed)
        self.groups = {
            name: ReplicatedService(
                self.sim, [f"{name}-n{i}" for i in (1, 2, 3)],
                lambda name=name: ShardedKvStateMachine(
                    name, ((0, HASH_SPACE),) if name == "g1" else (), 1),
            )
            for name in ("g1", "g2")
        }
        self.director = ReplicatedService(
            self.sim, [f"d{i}" for i in range(1, directors + 1)],
            MetaDirStateMachine,
        )
        self.drivers = {
            node: IntentDriver(replica, hold=hold, takeover=takeover)
            for node, replica in self.director.replicas.items()
        }
        self.map = ShardMap.initial(
            [self.group_info(name) for name in self.groups], serving=["g1"]
        )
        #: every admin client, for the metadir group's replay.
        self.admins: list[Client] = []

    def group_info(self, name: str) -> GroupInfo:
        """``name``'s members as of its newest configuration."""
        service = self.groups[name]
        members = sorted(r.node for r in service.live_members()) or sorted(
            service.initial_config.members.sorted_nodes())
        return GroupInfo(name, tuple(members), {n: ("sim", 0) for n in members})

    # -- admin requests ------------------------------------------------------

    def submit(self, service: ReplicatedService, name: str, ops: list,
               delay: float = 0.0) -> Client:
        """Start a closed-loop client that runs ``ops`` (``(op, args)``
        pairs) on ``service``, ``delay`` seconds from now."""
        pending = iter(ops)
        client = Client(
            self.sim, ClientId(name), service.initial_config.members,
            lambda: next(((op, args, 64) for op, args in pending), None),
            ClientParams(request_timeout=REQUEST_TIMEOUT, start_delay=delay),
        )
        if service is self.director:
            self.admins.append(client)
        return client

    def wait(self, condition: Callable[[], bool], what: str) -> None:
        """Run until ``condition()`` holds, for 30 s at most."""
        if not self.sim.run_until(condition, timeout=30.0):
            raise VerificationError(f"{what}: not done in 30 s")

    def run_ops(self, service: ReplicatedService, name: str, ops: list) -> Client:
        """Run ``ops`` on one closed-loop client until every one is answered."""
        client = self.submit(service, name, ops)
        self.wait(lambda: client.finished, name)
        return client

    def begin(self, name: str, kind: str, spec: dict, init: bool = False) -> int:
        """Commit an intent (``init``: install the map first); returns its id."""
        ops = [("dir_init", (self.map,))] if init else []
        begun = self.run_ops(self.director, name, [*ops, ("dir_begin", (kind, spec))])
        return self.intent_id(begun.records[-1].value)

    @staticmethod
    def intent_id(begun: dict) -> int:
        if not begun["ok"]:
            raise VerificationError(f"dir_begin refused: {begun}")
        return int(begun["intent"]["id"])

    def finish(self, iid: int, what: str) -> None:
        """Run until intent ``iid`` is archived; it must be done."""
        self.wait(lambda: self.archived(iid) is not None, what)
        if self.archived(iid)["status"] != "done":
            raise VerificationError(f"{what}: {self.archived(iid)}")

    def begin_split(self) -> int:
        self.run_ops(self.groups["g1"], "writer",
                     [("set", (key, i)) for i, key in enumerate(KEYS)])
        return self.begin("admin", "split", {"group": "g1", "target": "g2"}, init=True)

    def settle(self, iid: int) -> dict:
        """Run until the intent is archived, then a second more so every
        live replica has executed it; returns the archived record."""
        self.wait(lambda: self.archived(iid) is not None, f"intent {iid}")
        self.sim.run(until=self.sim.now + 1.0)
        return self.archived(iid)

    # -- what the groups hold -------------------------------------------------

    def machine(self) -> MetaDirStateMachine:
        """The director state at the live metadir replica furthest ahead."""
        replica = max(
            (r for r in self.director.replicas.values() if not r.crashed),
            key=lambda r: r.virtual_index,
        )
        return replica.state.inner

    def archived(self, iid: int) -> dict | None:
        """The intent's archived record at a live metadir replica."""
        for replica in self.director.replicas.values():
            if replica.crashed or replica.state is None:
                continue
            for intent in replica.state.inner.done:
                if intent["id"] == iid:
                    return intent
        return None

    def director_log(self, node: str) -> list[str]:
        replica = self.director.replicas[node]
        return [p.op for p, _, _ in replica.committed
                if isinstance(p, Command) and p.op in DIRECTOR_OPS]

    def chain_versions(self) -> list[int]:
        return [entry["version"] for entry in self.machine().chain]

    def data_cids(self, group: str, op: str) -> set[CommandId]:
        return {p.cid for r in self.groups[group].replicas.values()
                for p, _, _ in r.committed
                if isinstance(p, Command) and p.op == op}

    def target_items(self) -> dict:
        """What the g2 replica furthest ahead holds."""
        replica = max(self.groups["g2"].replicas.values(),
                      key=lambda r: r.virtual_index)
        return replica.state.inner.inner.snapshot()

    def crash_claimant_at_retired(self) -> list[str]:
        """Crash the claiming replica the moment ``retired`` executes
        anywhere; returns the (one-element, once it happened) victims."""
        victims: list[str] = []
        for replica in self.director.replicas.values():
            listener = replica.commit_listener

            def watch(now, payload, epoch, vindex, value, listener=listener):
                listener(now, payload, epoch, vindex, value)
                if (not victims and isinstance(payload, Command)
                        and payload.op == "dir_step"
                        and "retired" in value.get("steps", ())):
                    victims.append(value["claimed_by"])
                    self.director.replicas[value["claimed_by"]].crash()

            replica.commit_listener = watch
        return victims

    # -- membership -------------------------------------------------------------

    def reconfigure(self, group: str, members: list[str]) -> None:
        """Move ``group`` to ``members``, wait until a member of the new
        configuration started it, crash the replicas it dropped (a live
        cluster stops them) and publish the group's new membership."""
        service = self.groups[group]
        dropped = set(self.group_info(group).members) - set(members)
        service.reconfigure(members)
        self.wait(
            lambda: {r.node for r in service.live_members()} == set(members)
            and service.epoch_settled(service.newest_epoch()),
            f"{group} to {members}",
        )
        for node in dropped:
            service.replicas[node].crash()
        value = self.run_ops(
            self.director, f"publish-{len(self.admins)}",
            [("dir_publish", (self.group_info(group),))],
        ).records[-1].value
        if not value["ok"]:
            raise VerificationError(f"publish of {group}: {value}")


def run_shard_plan(cell: str, seed: int) -> tuple[StormPlan, World, VerificationReport]:
    """Run a sharded cell's plan on a :class:`World` and gate it.

    As in the live cell, a loader writes every key, two workers run
    until the plan's duration has passed and every step has returned,
    and the run then drains.
    """
    plan = build_storm_plan(cell, seed=seed)
    world = World(
        seed,
        hold=DIRECTOR_HOLD_MS / 1000 if cell == "director" else 0.0,
        takeover=DIRECTOR_TAKEOVER_MS / 1000,
    )
    sim = world.sim
    world.run_ops(world.director, "init", [("dir_init", (world.map,))])
    loader = world.run_ops(world.groups["g1"], "loader",
                           [("set", (f"k{i}", f"v0-{i}")) for i in range(SHARD_KEYS)])
    t0, running = sim.now, [True]
    clients = [
        SimShardClient(sim, f"w{i}", world.map,
                       world.director.initial_config.members.sorted_nodes(),
                       _workload(sim.rng.fork(f"shard-workload/{i}"), i, running),
                       REQUEST_TIMEOUT)
        for i in range(SHARD_WORKERS)
    ]
    (_director_steps if cell == "director" else _shard_steps)(world, plan, t0)
    end = max(sim.now, t0 + plan.duration)
    sim.run(until=end)
    running[0] = False
    sim.run_until(lambda: all(c.finished for c in clients), timeout=DRAIN_BOUND)

    history = History.from_clients([loader, *clients])
    errors = [check_chain_linear(tuple(world.machine().chain))]
    if history.pending:
        errors.append(f"{len(history.pending)} ops still pending after the drain")
    if cell == "shard" and not world.machine().shard_map.ranges_of("g2"):
        errors.append("g2 owns no range after the split")
    if any(errors):
        raise VerificationError("; ".join(e for e in errors if e))
    checked = check_kv_linearizable(history, raise_on_failure=True).checked_keys
    lanes = {
        "g1": [loader, *(c.lanes["g1"] for c in clients if "g1" in c.lanes)],
        "g2": [c.lanes["g2"] for c in clients if "g2" in c.lanes],
        "metadir": [*world.admins, *(c.reader for c in clients)],
    }
    groups = [
        verify_run(service.replicas.values(), lanes[name], check_linearizability=False)
        for name, service in (*world.groups.items(), ("metadir", world.director))
    ]
    return plan, world, VerificationReport(
        operations=len(history),
        pending_operations=0,
        kv_keys_checked=checked,
        positions=sum(group.positions for group in groups),
        epochs=sum(group.epochs for group in groups),
        replies=sum(group.replies for group in groups),
        replayed=sum(group.replayed for group in groups),
        stalled_s=availability_windows(history.operations, start=t0, end=end)["max_gap_s"],
    )


def _workload(rng: Any, index: int, running: list[bool]) -> OperationSource:
    """The live cell's worker mix on its keys, while ``running[0]``."""
    counter = itertools.count(1)

    def next_op():
        if not running[0]:
            return None
        key = f"k{rng.randint(0, SHARD_KEYS - 1)}"
        if rng.random() < SHARD_WRITES:
            return "set", (key, f"w{index}-{next(counter)}"), 64
        return "get", (key,), 32

    return next_op


def _director_steps(world: World, plan: StormPlan, t0: float) -> None:
    """Split with the claimant crashed the moment ``retired`` executes,
    then move the range back."""
    sim = world.sim
    victims = world.crash_claimant_at_retired()
    sim.run(until=t0 + plan.steps[0].time)
    world.finish(world.begin("split", "split", {"group": "g1", "target": "g2"}),
                 "split")
    if not victims:
        raise VerificationError("the claimant was never crashed")
    sim.run(until=max(sim.now, t0 + plan.steps[1].time))
    (moved, *_) = world.machine().shard_map.ranges_of("g2")
    world.finish(world.begin("move-back", "move",
                             {"lo": moved.lo, "hi": moved.hi, "target": "g1"}),
                 "move-back")


def _shard_steps(world: World, plan: StormPlan, t0: float) -> None:
    """Grow ``g1`` by one replica and shrink it back while a split out of
    ``g1`` runs."""
    sim = world.sim
    split = world.submit(
        world.director, "split",
        [("dir_begin", ("split", {"group": "g1", "target": "g2"}))],
        delay=plan.steps[1].time,  # from t0, which is now
    )
    sim.run(until=t0 + plan.steps[0].time)
    members = list(world.group_info("g1").members)
    world.reconfigure("g1", [*members, "g1-n4"])
    sim.run(until=max(sim.now, t0 + plan.steps[2].time))
    world.reconfigure("g1", members)
    world.wait(lambda: split.finished, "split")
    world.finish(world.intent_id(split.records[-1].value), "split")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    first, last = int(argv[0]), int(argv[1])
    failed = 0
    started = time.perf_counter()
    for seed in range(first, last + 1):
        for cell in CELLS:
            try:
                _, _, report = run_plan(cell, seed)
            except VerificationError as exc:
                failed += 1
                print(f"{cell} seed {seed}: FAILED: {exc}")
                print(build_storm_plan(cell, seed=seed).to_json())
                continue
            print(
                f"{cell} seed {seed}: ok ({report.operations} ops, "
                f"{report.replayed} acks replayed, longest stall "
                f"{report.stalled_s:.3f}s)",
                flush=True,
            )
    runs = (last - first + 1) * len(CELLS)
    wall = time.perf_counter() - started
    print(
        f"{failed} of {runs} runs failed in {wall:.1f} s wall "
        f"({runs / wall * 60:.0f} plans a minute)"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
