"""Tests for the static Multi-Paxos engine via StaticSmrHost clusters."""

import pytest

from repro.consensus import messages as m
from repro.consensus.interface import Batch, Noop, StaticSmrHost, proposal_key
from repro.consensus.multipaxos import MultiPaxosEngine, PaxosParams
from repro.sim.network import LatencyModel
from repro.sim.runner import Simulator
from repro.types import Command, CommandId, Membership, client_id, node_id


def make_cluster(n=3, seed=1, latency=None, params=None):
    sim = Simulator(seed=seed, latency=latency)
    members = Membership.from_iter(f"n{i + 1}" for i in range(n))
    hosts = {
        node: StaticSmrHost(sim, node, members, MultiPaxosEngine.factory(params))
        for node in members
    }
    return sim, hosts


def cmd(seq, client="c", op="set", args=("k", 1)):
    return Command(CommandId(client_id(client), seq), op, args)


def decided_payloads(host):
    return [d.payload for d in host.decisions]


def decided_commands(host):
    """Every decided command, in order, whatever slots carried them."""
    flat = []
    for payload in decided_payloads(host):
        flat.extend(payload.payloads if isinstance(payload, Batch) else [payload])
    return [p for p in flat if hasattr(p, "cid")]


def assert_logs_prefix_consistent(hosts):
    logs = [decided_payloads(h) for h in hosts.values() if not h.crashed]
    shortest = min(len(log) for log in logs)
    for log in logs[1:]:
        assert log[:shortest] == logs[0][:shortest]


class TestElection:
    def test_lowest_id_becomes_initial_leader(self):
        sim, hosts = make_cluster()
        sim.run(until=0.1)
        leaders = [h.node for h in hosts.values() if h.engine.is_leader]
        assert leaders == ["n1"]

    def test_exactly_one_leader_settles(self):
        sim, hosts = make_cluster(n=5, seed=9)
        sim.run(until=0.5)
        assert sum(1 for h in hosts.values() if h.engine.is_leader) == 1

    def test_takeover_after_leader_crash(self):
        sim, hosts = make_cluster()
        sim.run(until=0.1)
        hosts[node_id("n1")].crash()
        sim.run(until=1.0)
        live_leaders = [
            h.node for h in hosts.values() if not h.crashed and h.engine.is_leader
        ]
        assert len(live_leaders) == 1

    def test_single_node_cluster_leads_itself(self):
        sim, hosts = make_cluster(n=1)
        sim.run(until=0.1)
        host = hosts[node_id("n1")]
        assert host.engine.is_leader
        host.propose(cmd(1))
        sim.run(until=0.5)
        assert len(host.decisions) == 1


class TestReplication:
    def test_commands_decided_on_all_members(self):
        sim, hosts = make_cluster()
        sim.run(until=0.1)
        for i in range(20):
            hosts[node_id("n1")].propose(cmd(i + 1))
        sim.run(until=1.0)
        proposed = [cmd(i + 1) for i in range(20)]
        for host in hosts.values():
            assert decided_commands(host) == proposed
        assert_logs_prefix_consistent(hosts)

    def test_follower_proposals_forwarded(self):
        sim, hosts = make_cluster()
        sim.run(until=0.1)
        hosts[node_id("n3")].propose(cmd(1))
        sim.run(until=1.0)
        assert len(hosts[node_id("n1")].decisions) == 1

    def test_duplicate_proposals_one_slot(self):
        sim, hosts = make_cluster()
        sim.run(until=0.1)
        command = cmd(1)
        for host in hosts.values():
            host.propose(command)
        sim.run(until=1.0)
        payloads = decided_payloads(hosts[node_id("n1")])
        assert payloads.count(command) == 1

    def test_proposals_before_election_are_buffered(self):
        sim, hosts = make_cluster()
        hosts[node_id("n2")].propose(cmd(1))  # no leader known yet
        sim.run(until=1.0)
        assert decided_payloads(hosts[node_id("n2")]) == [cmd(1)]

    def test_decisions_survive_message_loss(self):
        sim, hosts = make_cluster(latency=LatencyModel(drop_probability=0.10), seed=4)
        sim.run(until=0.3)
        for i in range(30):
            sim.at(0.3 + i * 0.01, lambda i=i: hosts[node_id("n2")].propose(cmd(i + 1)))
        sim.run(until=6.0)
        decided_counts = [len(h.decisions) for h in hosts.values()]
        assert min(decided_counts) >= 30
        assert_logs_prefix_consistent(hosts)

    def test_commands_survive_leader_crash(self):
        sim, hosts = make_cluster(seed=6)
        sim.run(until=0.1)
        for i in range(40):
            sim.at(0.1 + i * 0.005, lambda i=i: hosts[node_id("n2")].propose(cmd(i + 1)))
        sim.at(0.2, hosts[node_id("n1")].crash)
        sim.run(until=4.0)
        survivors = [h for h in hosts.values() if not h.crashed]
        cids = {p.cid for h in survivors for p in decided_commands(h)}
        assert len(cids) == 40
        assert_logs_prefix_consistent(hosts)

    def test_duplication_and_loss_together(self):
        latency = LatencyModel(drop_probability=0.05, duplicate_probability=0.1)
        sim, hosts = make_cluster(latency=latency, seed=8)
        sim.run(until=0.3)
        for i in range(20):
            sim.at(0.3 + i * 0.01, lambda i=i: hosts[node_id("n3")].propose(cmd(i + 1)))
        sim.run(until=5.0)
        payloads = decided_payloads(hosts[node_id("n1")])
        command_payloads = [p for p in payloads if hasattr(p, "cid")]
        assert len({p.cid for p in command_payloads}) == 20
        # dedup: no command occupies two slots
        assert len(command_payloads) == len({p.cid for p in command_payloads})
        assert_logs_prefix_consistent(hosts)


class TestCatchup:
    def test_partitioned_follower_catches_up(self):
        sim, hosts = make_cluster(seed=5)
        sim.run(until=0.1)
        sim.network.policy.partition("cut", ["n3"], ["n1", "n2"])
        for i in range(15):
            hosts[node_id("n1")].propose(cmd(i + 1))
        sim.run(until=1.0)
        assert len(hosts[node_id("n3")].decisions) == 0
        sim.network.policy.heal("cut")
        sim.run(until=3.0)
        assert len(decided_commands(hosts[node_id("n3")])) == 15
        assert_logs_prefix_consistent(hosts)

    def test_noop_gap_fill_on_leader_change(self):
        # Crash the leader mid-burst; the new leader must render the log
        # gap-free (possibly with Noops) so delivery resumes. One slot per
        # command, so the crash finds 30 slots in flight, not one.
        sim, hosts = make_cluster(seed=7, params=PaxosParams(batch_max=1))
        sim.run(until=0.1)
        for i in range(30):
            hosts[node_id("n1")].propose(cmd(i + 1))
        sim.at(0.105, hosts[node_id("n1")].crash)
        sim.run(until=4.0)
        for host in hosts.values():
            if host.crashed:
                continue
            engine = host.engine
            assert not engine.log.has_gap
            assert engine.log.next_to_deliver >= 30 or all(
                isinstance(p, Noop) or hasattr(p, "cid")
                for p in decided_payloads(host)
            )
        assert_logs_prefix_consistent(hosts)


def retry_at_deposed_leader(
    params=None, forwarded=False, learn_before_step_down=False, retry_at="n1"
):
    """A leader cut off from its quorum assigns a command to slot 0; the
    majority side fills slot 0 with other commands; after the heal the
    client retries the command at the deposed leader (or at ``retry_at``)."""
    sim, hosts = make_cluster(seed=3, params=params)
    n1, n2 = hosts[node_id("n1")], hosts[node_id("n2")]
    lost = cmd(1, client="lost")

    def offer(host=n1):
        if forwarded:  # what a follower's forward delivers
            host.engine.on_message(m.ProposeForward(lost), node_id("n3"))
        else:
            host.propose(lost)

    sim.run(until=0.1)
    assert n1.engine.is_leader
    sim.network.policy.partition("cut", ["n1"], ["n2", "n3"])
    offer()
    sim.run(until=2.0)
    assert n1.engine.assigned_keys[proposal_key(lost)] == 0
    for i in range(5):
        n2.propose(cmd(i + 1, client="other"))
    sim.run(until=3.0)
    assert lost not in decided_commands(n2)
    if learn_before_step_down:
        assert n1.engine.is_leader
        n1.engine.on_message(m.Decide(0, n2.engine.log.value(0)), node_id("n2"))
        assert n1.engine.is_leader
    sim.network.policy.heal("cut")
    sim.at(6.0, lambda: offer(hosts[node_id(retry_at)]))
    sim.run(until=10.0)
    return hosts, lost


class TestDeposedLeaderRetry:
    """A key is settled only by a decided slot that carries it: a deposed
    leader's own assignment of a slot that another leader filled with
    other values must not swallow the client's retry."""

    @pytest.mark.parametrize("forwarded", [False, True], ids=["propose", "forward"])
    @pytest.mark.parametrize("batch_max", [32, 1])
    @pytest.mark.parametrize(
        "learn_before_step_down", [False, True], ids=["after", "before"]
    )
    def test_retry_is_decided_everywhere(self, forwarded, batch_max, learn_before_step_down):
        hosts, lost = retry_at_deposed_leader(
            PaxosParams(batch_max=batch_max), forwarded, learn_before_step_down
        )
        for host in hosts.values():
            assert decided_commands(host).count(lost) == 1, host.node
        assert_logs_prefix_consistent(hosts)

    def test_retry_at_a_member_of_the_majority_is_decided(self):
        """The control: the same retry at n2 was always decided."""
        hosts, lost = retry_at_deposed_leader(retry_at="n2")
        for host in hosts.values():
            assert decided_commands(host).count(lost) == 1


class TestEngineLifecycle:
    def test_stop_silences_engine(self):
        sim, hosts = make_cluster()
        sim.run(until=0.1)
        engine = hosts[node_id("n2")].engine
        engine.stop()
        before = len(hosts[node_id("n2")].decisions)
        hosts[node_id("n1")].propose(cmd(1))
        sim.run(until=1.0)
        assert len(hosts[node_id("n2")].decisions) == before

    def test_next_undelivered_slot_watermark(self):
        sim, hosts = make_cluster()
        sim.run(until=0.1)
        assert hosts[node_id("n1")].engine.next_undelivered_slot == 0
        hosts[node_id("n1")].propose(cmd(1))
        sim.run(until=1.0)
        assert hosts[node_id("n1")].engine.next_undelivered_slot == 1


class TestProposalKey:
    def test_command_key_uses_cid(self):
        command = cmd(3)
        assert proposal_key(command) is command.cid

    def test_command_reconfig_and_raw_keys_never_compare_equal(self):
        class RidPayload:  # a payload identified by ``rid``, not ``cid``
            def __init__(self, rid):
                self.rid = rid

        cid = CommandId(client_id("c"), 3)
        keys = [
            proposal_key(cmd(3)),
            proposal_key(RidPayload(cid)),
            proposal_key(("c", 3)),
            proposal_key(("cmd", cid)),
            proposal_key("c"),
        ]
        assert keys[0] == cid and keys[1] == ("reconfig", cid)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                assert a != b and b != a
        assert len(set(keys)) == len(keys)

    def test_noop_has_no_key(self):
        assert proposal_key(Noop()) is None

    def test_raw_hashables_get_raw_key(self):
        assert proposal_key("x") == ("raw", "x")
        assert proposal_key(7) == ("raw", 7)

    def test_unhashable_payloads_get_none(self):
        assert proposal_key(["list"]) is None


class TestDeterminism:
    def _run(self, seed):
        sim, hosts = make_cluster(seed=seed)
        sim.run(until=0.1)
        for i in range(10):
            hosts[node_id("n2")].propose(cmd(i + 1))
        sim.run(until=1.0)
        return [
            (str(h.node), [str(p) for p in decided_payloads(h)])
            for h in hosts.values()
        ], sim.events_executed

    def test_same_seed_same_outcome(self):
        assert self._run(21) == self._run(21)
