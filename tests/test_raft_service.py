"""Tests for the RaftService admin plane: decomposition, queues, races."""

from repro.apps.kvstore import KvStateMachine
from repro.baselines.raft_service import RaftService
from repro.core.client import ClientParams
from repro.sim.runner import Simulator
from repro.types import Membership, node_id


def make(seed=1, members=("n1", "n2", "n3")):
    sim = Simulator(seed=seed)
    return sim, RaftService(sim, list(members), KvStateMachine)


class TestStepDecomposition:
    def test_next_step_adds_before_removing(self):
        sim, service = make()
        sim.run(until=0.4)
        target = Membership.of("n1", "n2", "n4")
        step = service._next_step(target)
        assert step == Membership.of("n1", "n2", "n3", "n4")

    def test_next_step_removes_when_no_additions(self):
        sim, service = make()
        sim.run(until=0.4)
        target = Membership.of("n1", "n2")
        step = service._next_step(target)
        assert step == Membership.of("n1", "n2")

    def test_next_step_none_when_at_target(self):
        sim, service = make()
        sim.run(until=0.4)
        assert service._next_step(Membership.of("n1", "n2", "n3")) is None


class TestTargetQueue:
    def test_sequential_targets_both_apply(self):
        sim, service = make(seed=2)
        sim.run(until=0.4)
        service.reconfigure(["n1", "n2", "n3", "n4"])
        service.reconfigure(["n1", "n2", "n3", "n4", "n5"])
        ok = sim.run_until(
            lambda: service.applied_membership()
            == Membership.of("n1", "n2", "n3", "n4", "n5"),
            timeout=20.0,
        )
        assert ok

    def test_queue_survives_leader_change(self):
        sim, service = make(seed=3, members=("n1", "n2", "n3", "n4", "n5"))
        client = service.make_client(
            "c1",
            iter_ops(40),
            ClientParams(start_delay=0.3, request_timeout=0.4),
        )
        sim.run(until=0.5)
        service.reconfigure(["n2", "n3", "n4", "n5", "n6"])
        old_leader = service.leader()
        sim.at(0.7, old_leader.crash)
        ok = sim.run_until(
            lambda: service.applied_membership()
            == Membership.of("n2", "n3", "n4", "n5", "n6"),
            timeout=30.0,
        )
        assert ok
        sim.run_until(lambda: client.finished, timeout=30.0)
        assert client.finished

    def test_storm_of_targets_converges(self):
        sim, service = make(seed=4)
        sim.run(until=0.4)
        pool = ["n1", "n2", "n3"]
        fresh = 4
        for k in range(4):
            pool = pool[1:] + [f"n{fresh}"]
            fresh += 1
            service.reconfigure_at(0.5 + k * 0.2, list(pool))
        ok = sim.run_until(
            lambda: service.applied_membership() == Membership.from_iter(pool),
            timeout=60.0,
        )
        assert ok
        assert service.leader() is not None


def iter_ops(n):
    budget = [n]

    def ops():
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        return ("set", (f"k{budget[0] % 5}", budget[0]), 64)

    return ops


class TestRaftClientInteraction:
    def test_reads_and_writes_served(self):
        sim, service = make(seed=5)
        script = [("set", ("a", 1), 64), ("get", ("a",), 32)]
        plan = iter(script)
        client = service.make_client(
            "c1", lambda: next(plan, None), ClientParams(start_delay=0.4)
        )
        sim.run_until(lambda: client.finished, timeout=10.0)
        assert [r.value for r in client.records] == ["ok", 1]

    def test_duplicate_request_answered_from_cache(self):
        sim, service = make(seed=6)
        client = service.make_client(
            "c1", iter_ops(10), ClientParams(start_delay=0.4)
        )
        sim.run_until(lambda: client.finished, timeout=10.0)
        leader = service.leader()
        from repro.core.client import ClientRequest

        first_cmd = None
        for payload, _, _ in leader.committed:
            if hasattr(payload, "cid"):
                first_cmd = payload
                break
        inbox = []
        sim.network.register(node_id("probe"), lambda m: inbox.append(m))
        leader.on_message(
            ClientRequest(first_cmd, node_id("probe")), node_id("probe")
        )
        sim.run(until=sim.now + 0.1)
        assert len(inbox) == 1

    def test_applied_membership_visible_to_clients_via_redirects(self):
        sim, service = make(seed=7)
        # The client keeps issuing past the whole migration, so it must
        # chase the moving membership via redirects to finish.
        ops = iter_ops(10**6)
        client = service.make_client(
            "c1",
            lambda: ops() if sim.now < 4.0 else None,
            ClientParams(start_delay=0.4, request_timeout=0.3),
        )
        service.reconfigure_at(0.8, ["n4", "n5", "n6"])
        ok = sim.run_until(lambda: client.finished, timeout=60.0)
        assert ok
        # After full migration the client's view must have moved on.
        assert set(client.core.known_nodes) & {node_id("n4"), node_id("n5"), node_id("n6")}
