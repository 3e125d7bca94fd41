"""End-to-end correctness under failures: crashes, partitions, lossy links."""

import pytest

from repro.apps.counter import CounterStateMachine
from repro.apps.kvstore import KvStateMachine
from repro.core.client import ClientParams
from repro.core.service import ReplicatedService
from repro.faults import FailureSchedule
from repro.sim.failures import FailureInjector
from repro.sim.network import LatencyModel
from repro.sim.runner import Simulator
from repro.types import node_id
from repro.verify.histories import History
from repro.verify.invariants import (
    check_chain_agreement,
    check_prefix_consistency,
    check_reply_consistency,
)
from repro.verify.linearizability import check_kv_linearizable
from repro.workload.generators import counter_increments


def kv_clients(service, count, n_ops, timeout=0.3):
    clients = []
    for i in range(count):
        budget = [n_ops]
        rng = service.sim.rng.fork(f"itc{i}")

        def ops(budget=budget, rng=rng):
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            key = f"k{rng.randint(0, 5)}"
            if rng.random() < 0.5:
                return ("get", (key,), 32)
            return ("set", (key, budget[0]), 64)

        clients.append(
            service.make_client(
                f"c{i}", ops, ClientParams(start_delay=0.2, request_timeout=timeout)
            )
        )
    return clients


def assert_correct(service, clients):
    history = History.from_clients(clients)
    assert check_kv_linearizable(history).ok
    live = [r for r in service.replicas.values()]
    check_prefix_consistency(live)
    check_chain_agreement(live)
    check_reply_consistency(live)


class TestCrashes:
    @pytest.mark.parametrize("victim", ["n1", "n2"])
    def test_a_restarted_replica_votes_again(self, victim):
        # The victim (the first leader, or a follower) crashes and comes
        # back; then n3 crashes for good, so the victim's vote is part of
        # every quorum left. A restart keeps the chain and the acceptor
        # state but revives the engines as followers, so commands commit.
        sim = Simulator(seed=204)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        clients = kv_clients(service, 2, 1500)
        FailureInjector(
            sim,
            FailureSchedule()
            .crash(0.4, victim)
            .restart(0.8, victim)
            .crash(1.2, "n3"),
        ).arm()
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=30.0)
        assert done
        assert max(r.returned_at for c in clients for r in c.records) > 1.5
        assert_correct(service, clients)

    def test_follower_crash_transparent(self):
        sim = Simulator(seed=201)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        clients = kv_clients(service, 2, 50)
        FailureInjector(sim, FailureSchedule().crash(0.4, "n3")).arm()
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=30.0)
        assert done
        assert_correct(service, clients)

    def test_leader_crash_recovers(self):
        sim = Simulator(seed=202)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        clients = kv_clients(service, 2, 60)
        # n1 is the deterministic initial leader.
        FailureInjector(sim, FailureSchedule().crash(0.4, "n1")).arm()
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=30.0)
        assert done
        assert_correct(service, clients)

    def test_crash_then_replacement_reconfig(self):
        sim = Simulator(seed=203)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        clients = kv_clients(service, 2, 80)
        FailureInjector(sim, FailureSchedule().crash(0.4, "n2")).arm()
        service.reconfigure_at(0.6, ["n1", "n3", "n4"])
        # Wait for the epoch change too: the workload can drain a hair
        # before t=0.6 (wire sizes — and so simulated latencies — shrank
        # with the binary codec), and stopping there would skip the
        # reconfiguration this test exists to exercise.
        done = sim.run_until(
            lambda: all(c.finished for c in clients)
            and service.newest_epoch() == 1,
            timeout=40.0,
        )
        assert done
        assert_correct(service, clients)
        assert service.newest_epoch() == 1

    def test_crash_leader_and_replace_it(self):
        sim = Simulator(seed=204)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        clients = kv_clients(service, 2, 80)
        FailureInjector(sim, FailureSchedule().crash(0.4, "n1")).arm()
        service.reconfigure_at(0.6, ["n2", "n3", "n4"])
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=40.0)
        assert done
        assert_correct(service, clients)

    def test_joiner_crash_does_not_block_others(self):
        sim = Simulator(seed=205)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        clients = kv_clients(service, 2, 80)
        service.reconfigure_at(0.4, ["n1", "n2", "n4"])
        # n4 dies right after joining; quorum {n1,n2} keeps the epoch live.
        FailureInjector(sim, FailureSchedule().crash(0.55, "n4")).arm()
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=40.0)
        assert done
        assert_correct(service, clients)


class TestPartitions:
    def test_minority_partition_heals(self):
        sim = Simulator(seed=206)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        clients = kv_clients(service, 2, 60)
        schedule = (
            FailureSchedule()
            .partition(0.4, "cut", ["n3"], ["n1", "n2"])
            .heal(1.0, "cut")
        )
        FailureInjector(sim, schedule).arm()
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=40.0)
        assert done
        sim.run(until=sim.now + 1.5)
        assert_correct(service, clients)

    def test_leader_isolated_then_healed(self):
        sim = Simulator(seed=207)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        clients = kv_clients(service, 2, 60)
        schedule = (
            FailureSchedule()
            .partition(0.4, "iso", ["n1"], ["n2", "n3"])
            .heal(1.2, "iso")
        )
        FailureInjector(sim, schedule).arm()
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=40.0)
        assert done
        sim.run(until=sim.now + 1.5)
        assert_correct(service, clients)

    def test_reconfig_during_partition_of_leaving_node(self):
        sim = Simulator(seed=208)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        clients = kv_clients(service, 2, 60)
        FailureInjector(
            sim, FailureSchedule().partition(0.35, "cut", ["n3"], ["n1", "n2", "n4"])
        ).arm()
        service.reconfigure_at(0.45, ["n1", "n2", "n4"])
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=40.0)
        assert done
        assert_correct(service, clients)


class TestLossyNetwork:
    def test_kv_linearizable_under_loss(self):
        sim = Simulator(seed=209, latency=LatencyModel(drop_probability=0.05))
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        clients = kv_clients(service, 2, 40, timeout=0.4)
        service.reconfigure_at(0.5, ["n1", "n2", "n4"])
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=60.0)
        assert done
        assert_correct(service, clients)

    def test_exactly_once_under_loss_and_duplication(self):
        sim = Simulator(
            seed=210,
            latency=LatencyModel(drop_probability=0.05, duplicate_probability=0.05),
        )
        service = ReplicatedService(sim, ["n1", "n2", "n3"], CounterStateMachine)
        n_increments = 60
        client = service.make_client(
            "c1",
            counter_increments("c1", n_increments),
            ClientParams(start_delay=0.2, request_timeout=0.3),
        )
        service.reconfigure_at(0.5, ["n2", "n3", "n4"])
        done = sim.run_until(lambda: client.finished, timeout=60.0)
        assert done
        sim.run(until=sim.now + 2.0)
        values = {
            r.state.inner.value("c")
            for r in service.live_members()
            if r.state is not None
        }
        assert values == {n_increments}
