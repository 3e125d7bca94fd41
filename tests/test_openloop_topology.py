"""Tests for open-loop clients."""

from repro.apps.kvstore import KvStateMachine
from repro.core.client import Client, ClientParams
from repro.core.service import ReplicatedService
from repro.sim.runner import Simulator
from repro.types import ClientId, Membership, node_id
from repro.workload.generators import KvOperationMix
from tests.conftest import stop_at


def unbounded_sets(sim):
    mix = KvOperationMix(sim.rng.fork("ol-mix"), keyspace=16, read_ratio=0.3)
    return mix.source("ol", budget=None)


class TestOpenLoopClient:
    def test_issues_at_configured_rate(self):
        sim = Simulator(seed=61)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = Client(
            sim,
            ClientId("ol1"),
            service.initial_config.members,
            stop_at(sim, 0.2 + 2.0, unbounded_sets(sim)),
            ClientParams(rate=200.0, start_delay=0.2, lanes=256),
        )
        sim.run(until=3.0)
        # Poisson(200/s) over 2s ≈ 400 issues; generous tolerance.
        assert 250 < client.issued < 550
        assert len(client.records) > 200

    def test_arrivals_continue_during_outage(self):
        # A closed-loop client would stall; open-loop keeps offering load
        # and sheds when the outstanding window fills.
        sim = Simulator(seed=62)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = Client(
            sim,
            ClientId("ol1"),
            service.initial_config.members,
            stop_at(sim, 0.2 + 2.0, unbounded_sets(sim)),
            ClientParams(rate=300.0, start_delay=0.2, lanes=20,
                         request_timeout=0.2),
        )
        # Kill a majority: the service cannot commit anything.
        sim.at(0.5, service.replicas[node_id("n1")].crash)
        sim.at(0.5, service.replicas[node_id("n2")].crash)
        sim.run(until=2.5)
        assert client.shed > 50
        assert client.outstanding <= 20

    def test_completion_hook(self):
        sim = Simulator(seed=63)
        service = ReplicatedService(sim, ["n1", "n2"], KvStateMachine)
        seen = []
        Client(
            sim,
            ClientId("ol1"),
            service.initial_config.members,
            stop_at(sim, 0.2 + 1.0, unbounded_sets(sim)),
            ClientParams(rate=100.0, start_delay=0.2, lanes=256),
            on_complete=seen.append,
        )
        sim.run(until=2.0)
        assert len(seen) > 50
        assert all(r.returned_at >= r.invoked_at for r in seen)

    def test_operations_source_exhaustion_stops_client(self):
        sim = Simulator(seed=64)
        service = ReplicatedService(sim, ["n1", "n2"], KvStateMachine)
        budget = iter([("set", ("k", 1), 32)])
        client = Client(
            sim,
            ClientId("ol1"),
            service.initial_config.members,
            lambda: next(budget, None),
            ClientParams(rate=50.0, start_delay=0.2, lanes=256),
        )
        sim.run(until=2.0)
        assert client.stopped
        assert client.issued == 1
