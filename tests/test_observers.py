"""Tests for warm standbys (observers) and warm promotion."""

from repro.apps.kvstore import KvStateMachine
from repro.core.client import ClientParams
from repro.core.service import ReplicatedService
from repro.sim.runner import Simulator
from repro.types import node_id
from repro.verify.invariants import run_all_invariants


def make_loaded_service(sim, preload=10_000):
    def app():
        kv = KvStateMachine()
        kv.preload(preload)
        return kv

    return ReplicatedService(sim, ["n1", "n2", "n3"], app)


def run_client(sim, service, n_ops=60, start=0.2):
    budget = [n_ops]

    def ops():
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        return ("set", (f"k{budget[0] % 7}", budget[0]), 64)

    return service.make_client("c1", ops, ClientParams(start_delay=start))


class TestObserverTracking:
    def test_observer_bootstraps_and_follows(self):
        sim = Simulator(seed=51)
        service = make_loaded_service(sim, preload=100)
        client = run_client(sim, service, 50)
        observer = service.add_observer("w1")
        sim.run_until(lambda: client.finished, timeout=20.0)
        sim.run(until=sim.now + 1.0)
        member = service.replicas[node_id("n1")]
        assert observer.standby.bootstrapped
        assert observer.virtual_index == member.virtual_index
        assert observer.state.snapshot() == member.state.snapshot()

    def test_observer_does_not_vote_or_propose(self):
        sim = Simulator(seed=52)
        service = make_loaded_service(sim, preload=10)
        observer = service.add_observer("w1")
        client = run_client(sim, service, 20)
        sim.run_until(lambda: client.finished, timeout=20.0)
        assert all(rt.engine is None for rt in observer.chain.values())
        assert observer.is_retired

    def test_observer_tracks_through_reconfiguration(self):
        sim = Simulator(seed=53)
        service = make_loaded_service(sim, preload=100)
        observer = service.add_observer("w1")
        client = run_client(sim, service, 80)
        service.reconfigure_at(0.5, ["n1", "n2", "n4"])
        sim.run_until(lambda: client.finished, timeout=30.0)
        sim.run(until=sim.now + 1.5)
        member = service.replicas[node_id("n1")]
        assert observer.newest_epoch == member.newest_epoch
        assert observer.virtual_index == member.virtual_index

    def test_observer_survives_sponsor_crash(self):
        sim = Simulator(seed=54)
        service = make_loaded_service(sim, preload=100)
        observer = service.add_observer("w1")
        client = run_client(sim, service, 80)
        # Crash whichever member the observer first subscribed to.
        first_target = observer.standby.targets[0]
        sim.at(0.5, service.replicas[first_target].crash)
        sim.run_until(lambda: client.finished, timeout=30.0)
        sim.run(until=sim.now + 2.0)
        live = [r for r in service.replicas.values()
                if not r.crashed and not r.is_retired]
        assert observer.virtual_index == max(r.virtual_index for r in live)


class TestWarmPromotion:
    def test_promotion_without_bulk_transfer(self):
        sim = Simulator(seed=55)
        # Slow pipe: a cold join would visibly pay for the snapshot.
        sim.network.latency.bandwidth = 5_000_000.0
        service = make_loaded_service(sim, preload=30_000)
        observer = service.add_observer("w1")
        client = run_client(sim, service, 100)
        sim.run(until=1.0)  # let the observer warm up
        assert observer.standby.bootstrapped
        service.reconfigure(["n1", "n2", "w1"])
        sim.run_until(lambda: client.finished, timeout=30.0)
        sim.run(until=sim.now + 2.0)
        # Promoted: engine exists and no snapshot fetch ever started.
        assert any(rt.engine is not None for rt in observer.chain.values())
        assert observer.transfer.task is None
        member = service.replicas[node_id("n1")]
        assert observer.virtual_index == member.virtual_index
        run_all_invariants(service.replicas.values())

    def test_warm_join_faster_than_cold_join(self):
        def join_latency(warm: bool) -> float:
            sim = Simulator(seed=56)
            sim.network.latency.bandwidth = 5_000_000.0
            service = make_loaded_service(sim, preload=40_000)
            client = run_client(sim, service, None or 10_000)
            if warm:
                service.add_observer("w1")
                target = ["n1", "n2", "w1"]
            else:
                target = ["n1", "n2", "w1"]
            sim.run(until=1.5)
            service.reconfigure(target)
            joiner = service.replicas[node_id("w1")]
            ok = sim.run_until(
                lambda: joiner.epoch_runtime(1) is not None
                and joiner.epoch_runtime(1).start_state_ready,
                timeout=20.0,
            )
            assert ok
            return sim.now - 1.5

        warm = join_latency(True)
        cold = join_latency(False)
        assert warm < cold / 2, (warm, cold)

    def test_promoted_observer_serves_clients(self):
        sim = Simulator(seed=57)
        service = make_loaded_service(sim, preload=100)
        service.add_observer("w1")
        client = run_client(sim, service, 60)
        sim.run(until=0.6)
        service.reconfigure(["n2", "n3", "w1"])
        done = sim.run_until(lambda: client.finished, timeout=30.0)
        assert done
        run_all_invariants(service.replicas.values())
