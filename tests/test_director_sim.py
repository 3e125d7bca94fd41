"""The shard director in the simulator: range moves under a seeded schedule.

A metadir group (``d1..d3``) and two data groups (``g1`` serving the
whole keyspace, ``g2`` a spare) share one :class:`Simulator`, so node
names are unique across groups; each metadir replica runs its
:class:`IntentDriver` as a companion process. The live twins are
``tests/test_live_metadir.py`` and the ``director`` storm cell; here the
same driver code runs deterministically:

* a clean split costs the director log exactly claim, ``retired`` and
  complete, and the data groups see one retire and one install, each on
  its intent lane at seq 1;
* the claimant crashed the moment ``retired`` executes is rolled forward
  by another replica after the takeover bound (seeds 1-20);
* a lone metadir replica that restarts with the intent pending resumes it.
"""

from __future__ import annotations

import pytest

from repro.apps.shardkv import ShardedKvStateMachine
from repro.core.client import Client, ClientParams
from repro.core.service import ReplicatedService
from repro.shard.metadir import IntentDriver, MetaDirStateMachine, intent_client
from repro.shard.shardmap import HASH_SPACE, GroupInfo, ShardMap
from repro.sim.runner import Simulator
from repro.types import ClientId, Command, CommandId

KEYS = [f"k{i:02d}" for i in range(24)]
DIRECTOR_OPS = ("dir_claim", "dir_step", "dir_complete", "dir_abort")


class World:
    """The three groups, the drivers, and the admin requests."""

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
        # The simulator routes by name; the addresses stand in for the
        # book a live map carries, so the drivers send the way they do live.
        self.map = ShardMap.initial(
            [GroupInfo(name, tuple(service.initial_config.members.sorted_nodes()),
                       {node: ("sim", 0) for node in service.replicas})
             for name, service in self.groups.items()],
            serving=["g1"],
        )

    def run_ops(self, service: ReplicatedService, name: str, ops: list) -> Client:
        """Run ``ops`` (``(op, args)`` pairs) on one closed-loop client
        until every one is answered."""
        pending = iter(ops)
        client = Client(
            self.sim, ClientId(name), service.initial_config.members,
            lambda: next(((op, args, 64) for op, args in pending), None),
            ClientParams(request_timeout=0.5),
        )
        assert self.sim.run_until(lambda: client.finished, timeout=30.0), name
        return client

    def begin_split(self) -> int:
        self.run_ops(self.groups["g1"], "writer",
                     [("set", (key, i)) for i, key in enumerate(KEYS)])
        admin = self.run_ops(self.director, "admin", [
            ("dir_init", (self.map,)),
            ("dir_begin", ("split", {"group": "g1", "target": "g2"})),
        ])
        begun = admin.records[-1].value
        assert begun["ok"], begun
        return int(begun["intent"]["id"])

    def settle(self, iid: int) -> dict:
        """Run until the intent is archived, then a second more so every
        live replica has executed it; returns the archived record."""
        assert self.sim.run_until(lambda: self.archived(iid) is not None, 30.0)
        self.sim.run(until=self.sim.now + 1.0)
        return self.archived(iid)

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
        replica = max(
            (r for r in self.director.replicas.values() if not r.crashed),
            key=lambda r: r.virtual_index,
        )
        return [entry["version"] for entry in replica.state.inner.chain]

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


class TestCleanSplit:
    def test_claim_retired_complete_on_intent_lanes(self):
        world = World(seed=3)
        iid = world.begin_split()
        intent = world.settle(iid)
        assert intent["status"] == "done", intent
        assert intent["steps"] == ["retired"]
        for node in world.director.replicas:
            assert world.director_log(node) == [
                "dir_claim", "dir_step", "dir_complete"]
        assert world.data_cids("g1", "shard_retire") == {
            CommandId(ClientId(intent_client(iid, "r")), 1)}
        assert world.data_cids("g2", "shard_install") == {
            CommandId(ClientId(intent_client(iid, "i")), 1)}
        assert world.chain_versions() == [1, 2]

        # Every key the split moved reads back from g2.
        moved = [key for key in KEYS
                 if world.map.with_move(intent["lo"], intent["hi"], "g2")
                 .group_for_key(key) == "g2"]
        assert moved
        reader = world.run_ops(world.groups["g2"], "reader",
                               [("get", (key,)) for key in moved])
        assert [r.value for r in reader.records] == [
            KEYS.index(key) for key in moved]


class TestRollForward:
    @pytest.mark.parametrize("seed", range(1, 21))
    def test_a_survivor_completes_the_claimants_move(self, seed):
        world = World(seed, hold=0.4, takeover=0.6)
        victims = world.crash_claimant_at_retired()
        iid = world.begin_split()
        intent = world.settle(iid)

        assert len(victims) == 1, "the retired step never executed"
        assert intent["status"] == "done", intent
        assert intent["claimed_by"] != victims[0]
        versions = world.chain_versions()
        assert versions == list(range(1, len(versions) + 1)) and len(versions) == 2
        held = world.target_items()
        owned = world.map.with_move(intent["lo"], intent["hi"], "g2")
        for i, key in enumerate(KEYS):
            if owned.group_for_key(key) == "g2":
                assert held.get(key) == i, key


class TestRestart:
    def test_a_restarted_replica_resumes_its_pending_intent(self):
        world = World(seed=5, directors=1, hold=0.4, takeover=0.6)
        victims = world.crash_claimant_at_retired()
        iid = world.begin_split()
        assert world.sim.run_until(lambda: bool(victims), 30.0)
        (node,) = victims
        replica = world.director.replicas[node]
        assert world.drivers[node].crashed

        world.sim.run(until=world.sim.now + 2.0)
        assert replica.state.inner.active_intent["id"] == iid  # nobody moved
        replica.restart()
        intent = world.settle(iid)
        assert intent["status"] == "done" and intent["claimed_by"] == node
        assert world.data_cids("g2", "shard_install") == {
            CommandId(ClientId(intent_client(iid, "i")), 1)}
        assert world.chain_versions() == [1, 2]
