"""The shard director in the simulator: range moves under a seeded schedule.

The :class:`~benchmarks.sim_plans.World` the sharded sim plans run on:
a metadir group (``d1..d3``) and two data groups (``g1`` serving the
whole keyspace, ``g2`` a spare) share one :class:`Simulator`; each
metadir replica runs its :class:`IntentDriver` as a companion process.
The live twins are ``tests/test_live_metadir.py`` and the ``director``
storm cell; here the same driver code runs deterministically:

* a clean split costs the director log exactly claim, ``retired`` and
  complete, and the data groups see one retire and one install, each on
  its intent lane at seq 1;
* the claimant crashed the moment ``retired`` executes is rolled forward
  by another replica after the takeover bound (seeds 1-20);
* a lone metadir replica that restarts with the intent pending resumes it.
"""

from __future__ import annotations

import pytest

from benchmarks.sim_plans import KEYS, World
from repro.shard.metadir import intent_client
from repro.types import ClientId, CommandId


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
