"""Hand-constructed protocol edge cases for the consensus engines."""

from repro.apps.kvstore import KvStateMachine
from repro.consensus.ballot import Ballot
from repro.consensus.interface import StaticSmrHost
from repro.consensus.multipaxos import MultiPaxosEngine, PaxosParams
from repro.consensus import messages as m
from repro.consensus import multipaxos
from repro.sim.runner import Simulator
from repro.types import Command, CommandId, Membership, client_id, node_id


def make_cluster(n=3, seed=1, params=None):
    sim = Simulator(seed=seed)
    members = Membership.from_iter(f"n{i + 1}" for i in range(n))
    hosts = {
        node: StaticSmrHost(sim, node, members, MultiPaxosEngine.factory(params))
        for node in members
    }
    return sim, hosts


def cmd(seq):
    return Command(CommandId(client_id("c"), seq), "set", ("k", seq))


class TestPaxosAcceptorEdges:
    def test_accept_below_promise_nacked(self):
        sim, hosts = make_cluster()
        sim.run(until=0.3)  # n1 leads with ballot (1, n1)
        follower = hosts[node_id("n2")].engine
        promised_before = follower.promised
        # A stale Accept from a dead ballot must be refused.
        stale = m.Accept(Ballot(0, node_id("zz")), 99, "stale-value")
        follower.on_message(stale, node_id("zz"))
        assert follower.promised == promised_before
        assert 99 not in follower.accepted

    def test_accept_at_promise_level_accepted(self):
        sim, hosts = make_cluster()
        sim.run(until=0.3)
        leader = hosts[node_id("n1")].engine
        follower = hosts[node_id("n2")].engine
        # An Accept at exactly the promised ballot is valid (same leader).
        accept = m.Accept(leader.ballot, 500, "v")
        follower.on_message(accept, node_id("n1"))
        assert follower.accepted[500] == (leader.ballot, "v")

    def test_promise_reports_only_slots_at_or_above_base(self):
        sim, hosts = make_cluster()
        sim.run(until=0.3)
        for i in range(6):
            hosts[node_id("n1")].propose(cmd(i + 1))
        sim.run(until=1.0)
        follower = hosts[node_id("n2")].engine
        # Simulate a candidate asking from base slot 3.
        sent = []
        original_send = follower.transport.send
        follower.transport.send = lambda dest, inner, size=0: sent.append(inner)
        follower.on_message(
            m.Prepare(Ballot(50, node_id("n3")), 3), node_id("n3")
        )
        follower.transport.send = original_send
        promises = [x for x in sent if isinstance(x, m.Promise)]
        if promises:  # stickiness may nack; if promised, slots must be >= 3
            assert all(slot >= 3 for slot, _, _ in promises[0].accepted)

    def test_decide_is_idempotent_across_duplicates(self):
        sim, hosts = make_cluster()
        sim.run(until=0.3)
        follower = hosts[node_id("n3")].engine
        decide = m.Decide(0, cmd(1))
        follower.on_message(decide, node_id("n1"))
        follower.on_message(decide, node_id("n1"))
        assert len(hosts[node_id("n3")].decisions) == 1


class TestPaxosCatchupEdges:
    def test_catchup_reply_is_bounded_by_batch(self, monkeypatch):
        # CATCHUP_BATCH counts slots: twelve commands, twelve slots.
        monkeypatch.setattr(multipaxos, "CATCHUP_BATCH", 5)
        params = PaxosParams(batch_max=1)
        sim, hosts = make_cluster(params=params)
        sim.run(until=0.3)
        for i in range(12):
            hosts[node_id("n1")].propose(cmd(i + 1))
        sim.run(until=1.0)
        leader = hosts[node_id("n1")].engine
        sent = []
        leader.transport.send = lambda dest, inner, size=0: sent.append(inner)
        leader.on_message(m.CatchupRequest(0), node_id("n9"))
        replies = [x for x in sent if isinstance(x, m.CatchupReply)]
        assert len(replies) == 1
        assert len(replies[0].entries) == 5  # capped at the batch size

    def test_catchup_request_beyond_log_draws_no_reply(self):
        sim, hosts = make_cluster()
        sim.run(until=0.3)
        leader = hosts[node_id("n1")].engine
        sent = []
        leader.transport.send = lambda dest, inner, size=0: sent.append(inner)
        leader.on_message(m.CatchupRequest(10_000), node_id("n9"))
        assert not any(isinstance(x, m.CatchupReply) for x in sent)


class TestLeaseEdges:
    def test_lease_expires_exactly_after_duration(self):
        params = PaxosParams(lease_duration=0.05)
        sim, hosts = make_cluster(params=params)
        sim.run(until=0.3)
        leader = hosts[node_id("n1")].engine
        assert leader.has_read_lease(sim.now)
        # Freeze acks: without fresh echoes the lease lapses after 50 ms.
        newest_echo = max(leader._hb_echoes.values())
        assert not leader.has_read_lease(newest_echo + 0.051)

    def test_lease_disabled_when_duration_zero(self):
        params = PaxosParams(lease_duration=0.0)
        sim, hosts = make_cluster(params=params)
        sim.run(until=0.3)
        leader = hosts[node_id("n1")].engine
        assert not leader.has_read_lease(sim.now)

    def test_single_node_leader_always_holds_lease(self):
        sim, hosts = make_cluster(n=1)
        sim.run(until=0.3)
        only = hosts[node_id("n1")].engine
        assert only.is_leader
        assert only.has_read_lease(sim.now)


class TestRaftLogConflicts:
    def _replica(self, seed=941):
        from repro.baselines.raft import RaftReplica

        sim = Simulator(seed=seed)
        members = Membership.of("n1", "n2", "n3")
        replica = RaftReplica(
            sim, node_id("n2"), KvStateMachine, initial_config=members
        )
        return sim, replica

    def test_conflicting_suffix_truncated(self):
        from repro.baselines.raft import AppendEntries, RaftEntry

        sim, replica = self._replica()
        # Seed a log with a stale-term suffix.
        replica.current_term = 2
        replica.log = [RaftEntry(1, "a"), RaftEntry(1, "b"), RaftEntry(1, "c")]
        # Leader (term 3) says index 2 should be a term-3 entry.
        append = AppendEntries(
            term=3, leader=node_id("n1"), prev_log_index=1, prev_log_term=1,
            entries=(RaftEntry(3, "B"), RaftEntry(3, "C")), leader_commit=0,
        )
        replica.on_message(append, node_id("n1"))
        assert [e.payload for e in replica.log] == ["a", "B", "C"]
        assert replica.current_term == 3

    def test_append_with_gap_rejected_with_hint(self):
        from repro.baselines.raft import AppendEntries, AppendReply, RaftEntry

        sim, replica = self._replica(seed=942)
        replica.current_term = 1
        sent = []
        replica.send = lambda dest, payload, size=0: sent.append(payload)
        append = AppendEntries(
            term=1, leader=node_id("n1"), prev_log_index=10, prev_log_term=1,
            entries=(RaftEntry(1, "x"),), leader_commit=0,
        )
        replica.on_message(append, node_id("n1"))
        replies = [x for x in sent if isinstance(x, AppendReply)]
        assert replies and not replies[0].success
        assert replies[0].conflict_index == 1  # log empty: restart from 1

    def test_heartbeat_advances_commit_to_leader_commit(self):
        from repro.baselines.raft import AppendEntries, RaftEntry

        sim, replica = self._replica(seed=943)
        replica.current_term = 1
        append = AppendEntries(
            term=1, leader=node_id("n1"), prev_log_index=0, prev_log_term=0,
            entries=(RaftEntry(1, cmd(1)), RaftEntry(1, cmd(2))), leader_commit=2,
        )
        replica.on_message(append, node_id("n1"))
        assert replica.commit_index == 2
        assert replica.last_applied == 2
        assert len(replica.committed) == 2

    def test_duplicate_append_is_idempotent(self):
        from repro.baselines.raft import AppendEntries, RaftEntry

        sim, replica = self._replica(seed=944)
        replica.current_term = 1
        append = AppendEntries(
            term=1, leader=node_id("n1"), prev_log_index=0, prev_log_term=0,
            entries=(RaftEntry(1, cmd(1)),), leader_commit=1,
        )
        replica.on_message(append, node_id("n1"))
        replica.on_message(append, node_id("n1"))
        assert replica.last_log_index == 1
        assert len(replica.committed) == 1
