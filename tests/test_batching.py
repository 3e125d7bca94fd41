"""Tests for leader-side batching in the Multi-Paxos engine."""

import pytest

from repro.apps.kvstore import KvStateMachine
from repro.consensus.interface import Batch, StaticSmrHost, proposal_key
from repro.consensus.multipaxos import MultiPaxosEngine, PaxosParams
from repro.core.client import ClientParams
from repro.core.command import ReconfigCommand
from repro.core.reconfig import ReconfigParams
from repro.core.service import ReplicatedService
from repro.errors import ConfigurationError
from repro.sim.runner import Simulator
from repro.types import Command, CommandId, Membership, client_id, node_id
from repro.verify.histories import History
from repro.verify.invariants import run_all_invariants
from repro.verify.linearizability import check_kv_linearizable


def batched_params(delay=0.002, batch_max=32):
    return PaxosParams(batch_delay=delay, batch_max=batch_max)


def make_cluster(params, seed=1):
    sim = Simulator(seed=seed)
    members = Membership.of("n1", "n2", "n3")
    hosts = {
        n: StaticSmrHost(sim, n, members, MultiPaxosEngine.factory(params))
        for n in members
    }
    return sim, hosts


def cmd(seq, client="c"):
    return Command(CommandId(client_id(client), seq), "set", ("k", seq))


def flat_payloads(host):
    """Decided payloads in order, batches unpacked."""
    flat = []
    for decision in host.decisions:
        payload = decision.payload
        flat.extend(payload.payloads if isinstance(payload, Batch) else [payload])
    return flat


class TestEngineBatching:
    def test_burst_shares_slots(self):
        sim, hosts = make_cluster(batched_params(delay=0.005))
        sim.run(until=0.1)
        for i in range(10):
            hosts[node_id("n1")].propose(cmd(i + 1))
        sim.run(until=1.0)
        decisions = hosts[node_id("n2")].decisions
        # Ten commands within one window: far fewer slots than commands.
        assert len(decisions) < 10
        total = sum(
            len(d.payload) if isinstance(d.payload, Batch) else 1 for d in decisions
        )
        assert total == 10

    def test_batch_preserves_proposal_order(self):
        sim, hosts = make_cluster(batched_params(delay=0.005))
        sim.run(until=0.1)
        for i in range(6):
            hosts[node_id("n1")].propose(cmd(i + 1))
        sim.run(until=1.0)
        flat = []
        for decision in hosts[node_id("n3")].decisions:
            if isinstance(decision.payload, Batch):
                flat.extend(decision.payload.payloads)
            else:
                flat.append(decision.payload)
        assert [p.cid.seq for p in flat] == [1, 2, 3, 4, 5, 6]

    def test_batch_max_caps_size(self):
        sim, hosts = make_cluster(batched_params(delay=0.050, batch_max=4))
        sim.run(until=0.1)
        for i in range(9):
            hosts[node_id("n1")].propose(cmd(i + 1))
        sim.run(until=1.0)
        for decision in hosts[node_id("n1")].decisions:
            if isinstance(decision.payload, Batch):
                assert len(decision.payload) <= 4

    def test_duplicates_within_window_collapse(self):
        sim, hosts = make_cluster(batched_params(delay=0.010))
        sim.run(until=0.1)
        command = cmd(1)
        for _ in range(5):
            hosts[node_id("n1")].propose(command)
        sim.run(until=1.0)
        flat = []
        for decision in hosts[node_id("n1")].decisions:
            payload = decision.payload
            flat.extend(payload.payloads if isinstance(payload, Batch) else [payload])
        assert flat.count(command) == 1

    def test_zero_delay_means_no_batches(self):
        """Zero delay holds nothing behind a busy pipeline: commands that
        arrive in different ticks, each behind the previous one's slot
        still in flight, take a slot each and leave as they arrive."""
        sim, hosts = make_cluster(PaxosParams(batch_delay=0.0))
        leader = hosts[node_id("n1")]
        sim.run(until=0.1)
        for i in range(5):
            leader.propose(cmd(i + 1))
            sim.run(until=sim.now + 0.0001)  # no round trip fits in that
            assert not leader.engine._batch  # not held for slot i - 1
            assert list(leader.engine.inflight) == list(range(i + 1))
        sim.run(until=1.0)
        assert [d.payload for d in leader.decisions] == [cmd(i + 1) for i in range(5)]

    def test_batch_has_no_proposal_key(self):
        batch = Batch((cmd(1), cmd(2)))
        assert proposal_key(batch) is None
        assert batch.size > cmd(1).size


class TestOneSlotPerTick:
    """The one admission rule at its default, ``batch_delay == 0``."""

    def test_commands_of_one_tick_share_one_slot(self):
        sim, hosts = make_cluster(PaxosParams())
        leader = hosts[node_id("n1")]
        sim.run(until=0.1)
        burst = [cmd(i + 1) for i in range(8)]
        for command in burst:
            leader.propose(command)
        sim.run(until=1.0)
        for host in hosts.values():
            assert [d.payload for d in host.decisions] == [Batch(tuple(burst))]
        waits = sim.metrics.histogram("paxos.batch_wait").summary()
        assert waits["count"] == 1 and waits["max"] == 0.0

    def test_lone_command_is_proposed_in_the_tick_it_arrived(self):
        sim, hosts = make_cluster(PaxosParams())
        leader = hosts[node_id("n1")]
        sim.run(until=0.1)
        arrived = sim.now
        leader.propose(cmd(1))
        sim.run(until=arrived)
        assert sim.now == arrived
        assert leader.engine.inflight[0].value == cmd(1)  # bare, no Batch
        sim.run(until=1.0)
        assert [d.payload for d in hosts[node_id("n3")].decisions] == [cmd(1)]

    def test_batch_max_one_is_one_slot_per_command(self):
        sim, hosts = make_cluster(PaxosParams(batch_max=1))
        sim.run(until=0.1)
        burst = [cmd(i + 1) for i in range(8)]
        for command in burst:
            hosts[node_id("n1")].propose(command)
        sim.run(until=1.0)
        for host in hosts.values():
            assert [d.payload for d in host.decisions] == burst
            assert [d.slot for d in host.decisions] == list(range(8))

    def test_batch_max_below_one_is_refused(self):
        with pytest.raises(ConfigurationError):
            make_cluster(PaxosParams(batch_max=0))

    def test_reconfigure_mid_tick_flushes_the_buffer_and_owns_its_slot(self):
        sim, hosts = make_cluster(PaxosParams())
        leader = hosts[node_id("n1")]
        sim.run(until=0.1)
        reconfig = ReconfigCommand(
            CommandId(client_id("admin"), 1), Membership.of("n1", "n2", "n4")
        )
        for payload in (cmd(1), cmd(2), reconfig, cmd(3)):
            leader.propose(payload)
        sim.run(until=1.0)
        for host in hosts.values():
            assert [d.payload for d in host.decisions] == [
                Batch((cmd(1), cmd(2))), reconfig, cmd(3),
            ]

    def test_step_down_with_a_buffered_batch_loses_nothing(self):
        """The buffer dies with the term; ``awaiting`` still holds every
        command and the retry timer routes them to the new leader."""
        sim, hosts = make_cluster(PaxosParams(window=1))
        old = hosts[node_id("n1")]
        sim.run(until=0.1)
        sim.network.policy.partition("cut", ["n1"], ["n2", "n3"])
        old.propose(cmd(1))  # fills the window; the cut keeps it there
        sim.run(until=sim.now)
        old.propose(cmd(2))
        old.propose(cmd(3))
        sim.run(until=1.0)  # n2 / n3 elect a leader meanwhile
        assert old.engine.is_leader and old.engine._batch == [cmd(2), cmd(3)]
        sim.network.policy.heal("cut")
        sim.run(until=3.0)
        assert not old.engine.is_leader and not old.engine._batch
        for host in hosts.values():
            decided = [p for p in flat_payloads(host) if isinstance(p, Command)]
            assert sorted(p.cid.seq for p in decided) == [1, 2, 3]


class TestBatchedService:
    def _service(self, sim, delay=0.002):
        return ReplicatedService(
            sim,
            ["n1", "n2", "n3"],
            KvStateMachine,
            params=ReconfigParams(
                engine_factory=MultiPaxosEngine.factory(batched_params(delay))
            ),
        )

    def _clients(self, sim, service, count=6, n_ops=40):
        clients = []
        for i in range(count):
            budget = [n_ops]
            rng = sim.rng.fork(f"b{i}")

            def ops(budget=budget, rng=rng):
                if budget[0] <= 0:
                    return None
                budget[0] -= 1
                key = f"k{rng.randint(0, 4)}"
                if rng.random() < 0.5:
                    return ("get", (key,), 32)
                return ("set", (key, budget[0]), 64)

            clients.append(
                service.make_client(f"c{i}", ops, ClientParams(start_delay=0.2))
            )
        return clients

    def test_linearizable_through_reconfig_with_batching(self):
        sim = Simulator(seed=601)
        service = self._service(sim)
        clients = self._clients(sim, service)
        service.reconfigure_at(0.5, ["n1", "n2", "n4"])
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=40.0)
        assert done
        history = History.from_clients(clients)
        assert check_kv_linearizable(history).ok
        run_all_invariants(service.replicas.values())

    def test_reconfig_command_rides_alone(self):
        sim = Simulator(seed=602)
        service = self._service(sim, delay=0.010)
        # Enough operations that the clients are still submitting when the
        # RECONFIGURE arrives (an idle pipeline no longer holds a batch for
        # ``delay``, so 8 x 40 would be done before t = 0.5 s).
        clients = self._clients(sim, service, count=8, n_ops=400)
        service.reconfigure_at(0.5, ["n1", "n2", "n4"])
        replica = service.replicas[node_id("n1")]
        sealed = sim.run_until(
            lambda: replica.epoch_runtime(0).cut_slot is not None, timeout=40.0
        )
        assert sealed
        assert not all(c.finished for c in clients)
        # The slot that sealed epoch 0 must hold a bare ReconfigCommand.
        from repro.core.command import ReconfigCommand

        runtime = replica.epoch_runtime(0)
        assert isinstance(runtime.effective[runtime.cut_slot], ReconfigCommand)
        assert any(isinstance(p, Batch) for p in runtime.effective)
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=40.0)
        assert done

    def test_virtual_indices_continuous_with_batches(self):
        sim = Simulator(seed=603)
        service = self._service(sim, delay=0.005)
        clients = self._clients(sim, service, count=8, n_ops=30)
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=40.0)
        assert done
        replica = service.replicas[node_id("n1")]
        indices = [v for _, _, v in replica.committed]
        assert indices == list(range(len(indices)))

    def test_batching_reduces_messages(self):
        def run(delay):
            sim = Simulator(seed=604)
            service = self._service(sim, delay=delay)
            clients = self._clients(sim, service, count=10, n_ops=30)
            sim.run_until(lambda: all(c.finished for c in clients), timeout=40.0)
            return sim.network.stats.messages_sent

        assert run(0.003) < run(0.0) * 0.75
