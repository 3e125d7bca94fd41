"""Open-loop clients through reconfigurations and outages.

Closed-loop clients self-throttle; these tests measure the service from
the offered-load side, where availability gaps surface as shed arrivals
and late completions rather than a quiet client.
"""

from repro.apps.kvstore import KvStateMachine
from repro.core.client import Client, ClientParams
from repro.core.service import ReplicatedService
from repro.metrics.stats import longest_gap
from repro.sim.runner import Simulator
from repro.types import ClientId, node_id
from repro.workload.generators import KvOperationMix
from tests.conftest import stop_at


def open_loop(sim, service, rate=300.0, stop_after=2.5, lanes=256, **kw):
    mix = KvOperationMix(sim.rng.fork("olr"), keyspace=16, read_ratio=0.4)
    return Client(
        sim,
        ClientId("ol"),
        service.initial_config.members,
        stop_at(sim, 0.3 + stop_after, mix.source("ol", None)),
        ClientParams(rate=rate, start_delay=0.3, lanes=lanes, **kw),
    )


class TestOpenLoopThroughReconfig:
    def test_completions_continue_through_replacement(self):
        sim = Simulator(seed=911)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = open_loop(sim, service)
        service.reconfigure_at(1.2, ["n1", "n2", "n4"])
        sim.run(until=4.0)
        assert len(client.records) > 500
        completion_times = [r.returned_at for r in client.records]
        gap = longest_gap(completion_times, 0.4, 2.7)
        # A single replacement must not silence completions for long.
        assert gap < 0.25, f"completion gap {gap * 1000:.0f}ms"

    def test_full_migration_with_open_load(self):
        sim = Simulator(seed=912)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = open_loop(sim, service, rate=200.0)
        service.reconfigure_at(1.2, ["n4", "n5", "n6"])
        sim.run(until=4.5)
        assert len(client.records) > 300
        # Offered load was ~200/s for ~2.5s; most must complete.
        assert len(client.records) > client.issued * 0.8

    def test_minority_loss_sheds_then_recovers_via_reconfig(self):
        sim = Simulator(seed=913)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = open_loop(sim, service, rate=250.0, stop_after=3.0,
                           lanes=30, request_timeout=0.25)
        # Lose one member (n1 is the bootstrap leader: worst case), then
        # repair by reconfiguring a replacement in.
        sim.at(1.0, service.replicas[node_id("n1")].crash)
        sim.at(1.4, lambda: service.reconfigure(["n2", "n3", "n7"]))
        sim.run(until=5.5)
        post_repair = [r for r in client.records if r.returned_at > 2.2]
        assert len(post_repair) > 100
        assert service.newest_epoch() == 1

    def test_majority_loss_is_unrecoverable_in_band(self):
        """Quorum loss cannot be repaired by ordinary reconfiguration:
        the reconfiguration itself must be decided by the *current*
        configuration's quorum, which is gone. This is fundamental to any
        quorum-based SMR (disaster recovery is out-of-band by nature) —
        the test documents the semantics rather than wishing them away."""
        sim = Simulator(seed=915)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = open_loop(sim, service, rate=250.0, stop_after=3.0,
                           lanes=30, request_timeout=0.25)
        sim.at(1.0, service.replicas[node_id("n1")].crash)
        sim.at(1.0, service.replicas[node_id("n2")].crash)
        sim.at(1.6, lambda: service.reconfigure(["n3", "n7", "n8"]))
        sim.run(until=5.5)
        # Arrivals shed against the full outstanding window...
        assert client.shed > 100
        # ...and nothing commits after the quorum died.
        post_loss = [r for r in client.records if r.returned_at > 1.3]
        assert post_loss == []
        assert service.newest_epoch() == 0

    def test_outstanding_drains_after_stop(self):
        sim = Simulator(seed=914)
        service = ReplicatedService(sim, ["n1", "n2"], KvStateMachine)
        client = open_loop(sim, service, rate=500.0, stop_after=1.0)
        sim.run(until=3.0)
        assert client.stopped
        assert client.outstanding == 0
