"""End-to-end correctness through reconfigurations.

Every scenario here runs real clients against a real service through real
membership changes, then applies the full oracle stack: linearizability of
the client-observed history plus all structural invariants.
"""

import pytest

from repro.apps.counter import CounterStateMachine
from repro.apps.kvstore import KvStateMachine
from repro.consensus.sequencer import SequencerEngine
from repro.core.client import ClientParams
from repro.core.reconfig import ReconfigParams
from repro.core.service import ReplicatedService
from repro.sim.runner import Simulator
from repro.types import node_id
from repro.verify.histories import History
from repro.verify.invariants import run_all_invariants
from repro.verify.linearizability import check_kv_linearizable
from repro.workload.generators import KvOperationMix, counter_increments
from tests.conftest import run_kv_service


def full_check(service, clients):
    history = History.from_clients(clients)
    result = check_kv_linearizable(history)
    assert result.ok, f"not linearizable at key {result.failing_key}"
    run_all_invariants(service.replicas.values())
    return result


class TestReplacement:
    @pytest.mark.parametrize("depth", [None, 1, 2])
    def test_single_replacement_linearizable(self, depth):
        sim = Simulator(seed=101)
        service, clients, finished = run_kv_service(
            sim,
            n_ops=60,
            client_count=3,
            pipeline_depth=depth,
            reconfigs=[(0.4, ("n1", "n2", "n4"))],
        )
        assert finished
        result = full_check(service, clients)
        assert result.checked_ops == 180

    def test_full_membership_migration(self):
        sim = Simulator(seed=102)
        service, clients, finished = run_kv_service(
            sim,
            n_ops=80,
            client_count=3,
            reconfigs=[(0.4, ("n4", "n5", "n6"))],
        )
        assert finished
        full_check(service, clients)
        # Every original member retired, the new trio serves.
        for node in ("n1", "n2", "n3"):
            assert service.replicas[node_id(node)].is_retired

    def test_scale_up_then_down(self):
        sim = Simulator(seed=103)
        service, clients, finished = run_kv_service(
            sim,
            n_ops=90,
            client_count=2,
            reconfigs=[
                (0.4, ("n1", "n2", "n3", "n4", "n5")),
                (0.9, ("n1", "n2", "n3")),
            ],
        )
        assert finished
        full_check(service, clients)
        assert service.newest_epoch() == 2

    def test_back_to_back_reconfigurations(self):
        sim = Simulator(seed=104)
        service, clients, finished = run_kv_service(
            sim,
            n_ops=100,
            client_count=3,
            reconfigs=[
                (0.40, ("n1", "n2", "n4")),
                (0.45, ("n1", "n4", "n5")),
                (0.50, ("n4", "n5", "n6")),
                (0.55, ("n5", "n6", "n7")),
            ],
            until=60.0,
        )
        assert finished
        full_check(service, clients)
        assert service.newest_epoch() == 4

    def test_stop_the_world_back_to_back(self):
        sim = Simulator(seed=105)
        service, clients, finished = run_kv_service(
            sim,
            n_ops=80,
            client_count=2,
            pipeline_depth=1,
            reconfigs=[
                (0.40, ("n1", "n2", "n4")),
                (0.50, ("n1", "n4", "n5")),
            ],
            until=60.0,
        )
        assert finished
        full_check(service, clients)


class TestSequencerBlock:
    def test_composition_over_sequencer_is_linearizable(self):
        sim = Simulator(seed=106)
        service, clients, finished = run_kv_service(
            sim,
            n_ops=60,
            client_count=2,
            engine_factory=SequencerEngine,
            reconfigs=[(0.4, ("n1", "n2", "n4"))],
        )
        assert finished
        full_check(service, clients)

    def test_reconfiguration_replaces_dead_sequencer(self):
        # The sequencer block stalls if its orderer dies — but the layer
        # above can still reconfigure *around* the corpse as long as the
        # current epoch's sequencer survives long enough to order the
        # reconfig. Here we kill the *next* epoch's future sequencer first,
        # proving epochs are independent.
        sim = Simulator(seed=107)
        service = ReplicatedService(
            sim,
            ["n1", "n2", "n3"],
            KvStateMachine,
            params=ReconfigParams(engine_factory=SequencerEngine),
        )
        budget = [40]

        def ops():
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            return ("set", (f"k{budget[0] % 5}", budget[0]), 64)

        client = service.make_client("c1", ops, ClientParams(start_delay=0.2))
        service.reconfigure_at(0.4, ["n2", "n3", "n4"])
        done = sim.run_until(lambda: client.finished, timeout=30.0)
        assert done
        run_all_invariants(service.replicas.values())


class TestExactlyOnceThroughReconfig:
    def test_counter_arithmetic_exact(self):
        sim = Simulator(seed=108)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], CounterStateMachine)
        n_increments = 120
        client = service.make_client(
            "c1",
            counter_increments("c1", n_increments),
            ClientParams(start_delay=0.2, request_timeout=0.3),
        )
        service.reconfigure_at(0.4, ["n1", "n2", "n4"])
        service.reconfigure_at(0.8, ["n2", "n4", "n5"])
        done = sim.run_until(lambda: client.finished, timeout=60.0)
        assert done
        sim.run(until=sim.now + 1.0)
        # Final counter must equal exactly the acknowledged increments.
        final_values = {
            replica.state.inner.value("c")
            for replica in service.live_members()
            if replica.state is not None
        }
        assert final_values == {n_increments}
        # Every ack reported the correct running value.
        assert [r.value for r in client.records] == list(range(1, n_increments + 1))

    def test_two_counters_two_clients(self):
        sim = Simulator(seed=109)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], CounterStateMachine)
        clients = [
            service.make_client(
                f"c{i}",
                counter_increments(f"c{i}", 60, counter_name=f"cnt{i}"),
                ClientParams(start_delay=0.2),
            )
            for i in range(2)
        ]
        service.reconfigure_at(0.4, ["n1", "n3", "n4"])
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=60.0)
        assert done
        sim.run(until=sim.now + 1.0)
        replica = service.live_members()[0]
        assert replica.state.inner.value("cnt0") == 60
        assert replica.state.inner.value("cnt1") == 60


class TestContendedKeys:
    def test_cas_heavy_contention_through_reconfig(self):
        # Many clients CASing few keys maximally stresses ordering; any
        # double-execution or reordering breaks linearizability here.
        sim = Simulator(seed=110)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        mix = KvOperationMix(
            sim.rng.fork("mix"), keyspace=3, read_ratio=0.3, cas_ratio=0.8
        )
        clients = [
            service.make_client(
                f"c{i}", mix.source(f"c{i}", 40), ClientParams(start_delay=0.2)
            )
            for i in range(4)
        ]
        service.reconfigure_at(0.4, ["n1", "n2", "n4"])
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=60.0)
        assert done
        full_check(service, clients)
