"""Tests for the trivial single-sequencer SMR block."""

from repro.consensus.interface import StaticSmrHost
from repro.consensus.sequencer import SequencerEngine
from repro.sim.network import LatencyModel
from repro.sim.runner import Simulator
from repro.types import Command, CommandId, Membership, client_id, node_id


def make_cluster(n=3, seed=1, latency=None):
    sim = Simulator(seed=seed, latency=latency)
    members = Membership.from_iter(f"n{i + 1}" for i in range(n))
    hosts = {
        node: StaticSmrHost(sim, node, members, SequencerEngine)
        for node in members
    }
    return sim, hosts


def cmd(seq, client="c"):
    return Command(CommandId(client_id(client), seq), "set", ("k", seq))


class TestSequencer:
    def test_lowest_id_is_sequencer(self):
        sim, hosts = make_cluster()
        assert hosts[node_id("n1")].engine.is_sequencer
        assert not hosts[node_id("n2")].engine.is_sequencer

    def test_orders_in_arrival_order(self):
        sim, hosts = make_cluster()
        sim.run(until=0.01)
        for i in range(10):
            hosts[node_id("n1")].propose(cmd(i + 1))
        sim.run(until=0.5)
        for host in hosts.values():
            assert [p.cid.seq for p in (d.payload for d in host.decisions)] == list(
                range(1, 11)
            )

    def test_follower_proposals_forwarded(self):
        sim, hosts = make_cluster()
        sim.run(until=0.01)
        hosts[node_id("n3")].propose(cmd(1))
        sim.run(until=0.5)
        assert len(hosts[node_id("n1")].decisions) == 1
        assert len(hosts[node_id("n3")].decisions) == 1

    def test_duplicate_proposals_single_slot(self):
        sim, hosts = make_cluster()
        sim.run(until=0.01)
        command = cmd(1)
        for host in hosts.values():
            host.propose(command)
        sim.run(until=0.5)
        assert len(hosts[node_id("n2")].decisions) == 1

    def test_loss_healed_by_gap_probe(self):
        sim, hosts = make_cluster(latency=LatencyModel(drop_probability=0.2), seed=3)
        sim.run(until=0.05)
        for i in range(20):
            sim.at(0.05 + i * 0.01, lambda i=i: hosts[node_id("n2")].propose(cmd(i + 1)))
        sim.run(until=5.0)
        for host in hosts.values():
            assert len(host.decisions) == 20

    def test_sequencer_crash_stalls_instance(self):
        # Not fault tolerant by design: the composition layer is what
        # replaces a dead sequencer (via reconfiguration).
        sim, hosts = make_cluster()
        sim.run(until=0.01)
        hosts[node_id("n1")].crash()
        hosts[node_id("n2")].propose(cmd(1))
        sim.run(until=1.0)
        assert len(hosts[node_id("n2")].decisions) == 0

    def test_retry_flushes_pre_start_proposals(self):
        sim, hosts = make_cluster()
        hosts[node_id("n2")].propose(cmd(1))  # before on_start ran
        sim.run(until=1.0)
        assert len(hosts[node_id("n2")].decisions) == 1
