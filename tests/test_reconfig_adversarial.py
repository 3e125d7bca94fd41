"""Adversarial composition scenarios: races, lost announces, seal-time crashes."""

from repro.apps.kvstore import KvStateMachine
from repro.core.client import ClientParams
from repro.core.service import ReplicatedService
from repro.sim.runner import Simulator
from repro.types import Membership, node_id
from repro.verify.histories import History
from repro.verify.invariants import run_all_invariants
from repro.verify.linearizability import check_kv_linearizable


def kv_client(sim, service, n_ops=60, name="c1", timeout=0.3):
    budget = [n_ops]
    rng = sim.rng.fork(f"adv-{name}")

    def ops():
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        key = f"k{rng.randint(0, 4)}"
        if rng.random() < 0.5:
            return ("get", (key,), 32)
        return ("set", (key, budget[0]), 64)

    return service.make_client(
        name, ops, ClientParams(start_delay=0.2, request_timeout=timeout)
    )


class TestAnnounceLoss:
    def test_partitioned_joiner_eventually_joins(self):
        sim = Simulator(seed=301)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = kv_client(sim, service, 60)
        # The joiner is cut off exactly when the seal (and its announce)
        # happens; the periodic re-announce must recover it after healing.
        joiner = service.add_replica("n4")
        sim.network.policy.partition("cut", ["n4"], ["n1", "n2", "n3"])
        service.reconfigure_at(0.4, ["n1", "n2", "n4"])
        sim.at(1.5, lambda: sim.network.policy.heal("cut"))
        done = sim.run_until(lambda: client.finished, timeout=40.0)
        assert done
        sim.run_until(
            lambda: joiner.epoch_runtime(1) is not None
            and joiner.epoch_runtime(1).start_state_ready,
            timeout=10.0,
        )
        assert joiner.epoch_runtime(1).start_state_ready
        run_all_invariants(service.replicas.values())


class TestConcurrentReconfigRequests:
    def test_racing_targets_serialize_into_a_chain(self):
        sim = Simulator(seed=302)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = kv_client(sim, service, 80)
        # Two different targets submitted at (nearly) the same instant:
        # both are ordered; the chain applies them in log order.
        service.reconfigure_at(0.400, ["n1", "n2", "n4"])
        service.reconfigure_at(0.401, ["n1", "n2", "n5"])
        done = sim.run_until(lambda: client.finished, timeout=40.0)
        assert done
        sim.run(until=sim.now + 2.0)
        assert service.newest_epoch() == 2
        run_all_invariants(service.replicas.values())
        history = History.from_clients([client])
        assert check_kv_linearizable(history).ok
        # The losing request was re-proposed, not dropped: final membership
        # reflects the later target.
        final_members = {
            str(m)
            for r in service.live_members()
            for m in r.newest_config.members
        }
        assert final_members == {"n1", "n2", "n5"}


class TestSealTimeCrashes:
    def test_leader_crash_immediately_after_reconfig_request(self):
        sim = Simulator(seed=303)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = kv_client(sim, service, 80)
        service.reconfigure_at(0.4, ["n2", "n3", "n4"])
        sim.at(0.402, service.replicas[node_id("n1")].crash)
        done = sim.run_until(lambda: client.finished, timeout=40.0)
        assert done
        sim.run(until=sim.now + 2.0)
        run_all_invariants(service.replicas.values())
        assert check_kv_linearizable(History.from_clients([client])).ok

    def test_all_leaving_members_crash_after_handoff(self):
        sim = Simulator(seed=304)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = kv_client(sim, service, 100, timeout=0.4)
        service.reconfigure_at(0.4, ["n4", "n5", "n6"])
        # Old members die shortly after the migration; the new trio must
        # already be self-sufficient.
        for i, node in enumerate(("n1", "n2", "n3")):
            sim.at(1.5 + i * 0.05, service.replicas[node_id(node)].crash)
        done = sim.run_until(lambda: client.finished, timeout=60.0)
        assert done
        assert check_kv_linearizable(History.from_clients([client])).ok

    def test_crash_joiner_during_transfer_then_replace_it(self):
        sim = Simulator(seed=305)

        def app():
            kv = KvStateMachine()
            kv.preload(20_000)
            return kv

        service = ReplicatedService(sim, ["n1", "n2", "n3"], app)
        sim.network.latency.bandwidth = 5_000_000.0  # slow transfer
        client = kv_client(sim, service, 80, timeout=0.4)
        service.reconfigure_at(0.4, ["n1", "n2", "n4"])
        # n4 dies mid-transfer; the admin replaces it with n5. (n4 only
        # exists once the reconfigure event fires, so resolve it lazily.)
        sim.at(0.55, lambda: service.replicas[node_id("n4")].crash())
        service.reconfigure_at(0.8, ["n1", "n2", "n5"])
        done = sim.run_until(lambda: client.finished, timeout=60.0)
        assert done
        sim.run(until=sim.now + 3.0)
        joiner = service.replicas[node_id("n5")]
        assert joiner.epoch_runtime(2) is not None
        assert joiner.epoch_runtime(2).start_state_ready
        run_all_invariants(
            r for r in service.replicas.values() if not r.crashed
        )


class TestShrinkToOne:
    def test_shrink_to_single_member_and_back(self):
        sim = Simulator(seed=306)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = kv_client(sim, service, 80)
        service.reconfigure_at(0.4, ["n1"])
        service.reconfigure_at(0.8, ["n1", "n2", "n3"])
        done = sim.run_until(lambda: client.finished, timeout=40.0)
        assert done
        sim.run(until=sim.now + 2.0)
        assert service.newest_epoch() == 2
        final = service.live_members()
        assert len(final) == 3
        run_all_invariants(service.replicas.values())

    def test_single_member_service_works(self):
        sim = Simulator(seed=307)
        service = ReplicatedService(sim, ["solo"], KvStateMachine)
        client = kv_client(sim, service, 40)
        done = sim.run_until(lambda: client.finished, timeout=20.0)
        assert done
        assert check_kv_linearizable(History.from_clients([client])).ok


class TestDeterminismEndToEnd:
    def _run(self, seed):
        sim = Simulator(seed=seed)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        client = kv_client(sim, service, 50)
        service.reconfigure_at(0.4, ["n1", "n2", "n4"])
        sim.run_until(lambda: client.finished, timeout=30.0)
        return [(str(r.cid), str(r.value)) for r in client.records]

    def test_full_service_run_is_deterministic(self):
        assert self._run(308) == self._run(308)

    def test_different_seeds_differ_in_timing(self):
        sim_a = Simulator(seed=309)
        service_a = ReplicatedService(sim_a, ["n1", "n2", "n3"], KvStateMachine)
        client_a = kv_client(sim_a, service_a, 30)
        sim_a.run_until(lambda: client_a.finished, timeout=30.0)

        sim_b = Simulator(seed=310)
        service_b = ReplicatedService(sim_b, ["n1", "n2", "n3"], KvStateMachine)
        client_b = kv_client(sim_b, service_b, 30)
        sim_b.run_until(lambda: client_b.finished, timeout=30.0)

        times_a = [r.returned_at for r in client_a.records]
        times_b = [r.returned_at for r in client_b.records]
        assert times_a != times_b
