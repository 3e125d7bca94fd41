"""Tests for the Raft baseline: elections, replication, membership, snapshots."""

import pytest

from repro.apps.kvstore import KvStateMachine
from repro.baselines import raft
from repro.baselines.raft import RaftReplica
from repro.baselines.raft_service import RaftService
from repro.core.client import ClientParams
from repro.core.command import ReconfigCommand
from repro.errors import ProtocolError
from repro.sim.network import LatencyModel
from repro.sim.runner import Simulator
from repro.types import CommandId, Membership, client_id, node_id


def make_cluster(n=3, seed=1, latency=None):
    sim = Simulator(seed=seed, latency=latency)
    service = RaftService(sim, [f"n{i + 1}" for i in range(n)], KvStateMachine)
    return sim, service


def kv_ops(n):
    budget = [n]

    def ops():
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        return ("set", (f"k{budget[0] % 7}", budget[0]), 64)

    return ops


class TestElection:
    def test_single_leader_emerges(self):
        sim, service = make_cluster(5, seed=2)
        sim.run(until=0.6)
        leaders = [r for r in service.replicas.values() if r.role == "leader"]
        assert len(leaders) == 1

    def test_leader_crash_triggers_new_election(self):
        sim, service = make_cluster(5, seed=3)
        sim.run(until=0.5)
        old = service.leader()
        old.crash()
        sim.run_until(
            lambda: service.leader() is not None and service.leader() is not old,
            timeout=5.0,
        )
        new = service.leader()
        assert new is not None and new.current_term > old.current_term

    def test_votes_are_sticky_while_leader_alive(self):
        sim, service = make_cluster(3, seed=4)
        sim.run(until=0.5)
        leader = service.leader()
        follower = next(r for r in service.replicas.values() if r.role == "follower")
        from repro.baselines.raft import RequestVote

        # A rogue candidate with a huge term must be refused while the
        # leader heartbeats, and must not bump terms.
        before = follower.current_term
        follower.on_message(
            RequestVote(before + 50, node_id("rogue"), 10_000, before + 50),
            node_id("rogue"),
        )
        assert follower.current_term == before
        assert service.leader() is leader


class TestReplication:
    def test_client_ops_commit_everywhere(self):
        sim, service = make_cluster(3, seed=5)
        client = service.make_client("c1", kv_ops(30), ClientParams(start_delay=0.3))
        sim.run_until(lambda: client.finished, timeout=10.0)
        applied = {r.node: r.last_applied for r in service.replicas.values()}
        sim.run(until=sim.now + 0.5)  # let followers catch up fully
        assert all(r.last_applied >= 30 for r in service.replicas.values())

    def test_logs_agree_across_replicas(self):
        sim, service = make_cluster(3, seed=6)
        client = service.make_client("c1", kv_ops(40), ClientParams(start_delay=0.3))
        sim.run_until(lambda: client.finished, timeout=10.0)
        sim.run(until=sim.now + 0.5)
        canon = {}
        for replica in service.replicas.values():
            for payload, term, index in replica.committed:
                assert canon.setdefault(index, repr(payload)) == repr(payload)

    def test_commits_survive_message_loss(self):
        sim, service = make_cluster(
            3, seed=7, latency=LatencyModel(drop_probability=0.1)
        )
        client = service.make_client(
            "c1", kv_ops(25), ClientParams(start_delay=0.3, request_timeout=0.4)
        )
        done = sim.run_until(lambda: client.finished, timeout=30.0)
        assert done

    def test_follower_restart_rejoins(self):
        sim, service = make_cluster(3, seed=8)
        client = service.make_client("c1", kv_ops(40), ClientParams(start_delay=0.3))
        follower = service.replicas[node_id("n3")]
        sim.at(0.5, follower.crash)
        sim.at(1.0, follower.restart)
        sim.run_until(lambda: client.finished, timeout=15.0)
        sim.run(until=sim.now + 1.0)
        leader = service.leader()
        assert follower.last_applied == leader.last_applied


class TestMembership:
    def test_single_server_add(self):
        sim, service = make_cluster(3, seed=9)
        sim.run(until=0.5)
        service.reconfigure(["n1", "n2", "n3", "n4"])
        sim.run_until(
            lambda: len(service.applied_membership()) == 4, timeout=10.0
        )
        assert node_id("n4") in service.applied_membership()

    def test_single_server_remove(self):
        sim, service = make_cluster(3, seed=10)
        sim.run(until=0.5)
        service.reconfigure(["n1", "n2"])
        sim.run_until(lambda: len(service.applied_membership()) == 2, timeout=10.0)
        assert node_id("n3") not in service.applied_membership()

    def test_multi_change_is_rejected_at_replica_level(self):
        sim, service = make_cluster(3, seed=11)
        sim.run(until=0.5)
        leader = service.leader()
        jump = ReconfigCommand(
            CommandId(client_id("admin"), 99), Membership.of("n7", "n8", "n9")
        )
        with pytest.raises(ProtocolError):
            leader.request_reconfiguration(jump)

    def test_full_migration_via_decomposition(self):
        sim, service = make_cluster(3, seed=12)
        client = service.make_client("c1", kv_ops(100), ClientParams(start_delay=0.3))
        service.reconfigure_at(0.8, ["n4", "n5", "n6"])
        done = sim.run_until(lambda: client.finished, timeout=30.0)
        assert done
        sim.run_until(
            lambda: service.applied_membership() == Membership.of("n4", "n5", "n6"),
            timeout=20.0,
        )
        assert service.leader() is not None

    def test_removed_leader_steps_down(self):
        sim, service = make_cluster(3, seed=13)
        sim.run(until=0.5)
        old_leader = service.leader()
        survivors = [
            str(n) for n in service.replicas if n != old_leader.node
        ]
        service.reconfigure(survivors)
        sim.run_until(
            lambda: service.leader() is not None and service.leader() is not old_leader,
            timeout=10.0,
        )
        assert old_leader.role != "leader"


class TestSnapshots:
    def test_log_compaction_triggers(self, monkeypatch):
        monkeypatch.setattr(raft, "COMPACTION_THRESHOLD", 20)
        sim, service = make_cluster(3, seed=14)
        client = service.make_client("c1", kv_ops(60), ClientParams(start_delay=0.3))
        sim.run_until(lambda: client.finished, timeout=15.0)
        leader = service.leader()
        assert leader.snap_index > 0
        assert leader.log_base == leader.snap_index + 1

    def test_fresh_server_catches_up_via_snapshot(self, monkeypatch):
        monkeypatch.setattr(raft, "COMPACTION_THRESHOLD", 20)
        sim, service = make_cluster(3, seed=15)
        client = service.make_client("c1", kv_ops(60), ClientParams(start_delay=0.3))
        sim.run_until(lambda: client.finished, timeout=15.0)
        service.reconfigure(["n1", "n2", "n3", "n4"])
        sim.run_until(lambda: len(service.applied_membership()) == 4, timeout=10.0)
        sim.run(until=sim.now + 1.0)
        joiner = service.replicas[node_id("n4")]
        assert joiner.snap_index > 0  # arrived via InstallSnapshot
        leader = service.leader()
        assert joiner.last_applied >= leader.snap_index

    def test_snapshot_preserves_dedup_state(self, monkeypatch):
        monkeypatch.setattr(raft, "COMPACTION_THRESHOLD", 10)
        sim, service = make_cluster(3, seed=16)
        client = service.make_client("c1", kv_ops(40), ClientParams(start_delay=0.3))
        sim.run_until(lambda: client.finished, timeout=15.0)
        service.reconfigure(["n1", "n2", "n3", "n4"])
        sim.run_until(lambda: len(service.applied_membership()) == 4, timeout=10.0)
        sim.run(until=sim.now + 1.0)
        joiner = service.replicas[node_id("n4")]
        leader = service.leader()
        assert joiner.state.snapshot() == leader.state.snapshot()
