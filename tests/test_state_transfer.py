"""Tests for boundary-state transfer: one snapshot, polled round-robin."""

from repro.apps.kvstore import KvStateMachine
from repro.core.client import ClientParams
from repro.core.service import ReplicatedService
from repro.core.state_transfer import TransferTask
from repro.sim.network import LatencyModel
from repro.sim.runner import Simulator
from repro.types import node_id


def make_service(sim, preload=5000):
    def app():
        kv = KvStateMachine()
        kv.preload(preload)
        return kv

    return ReplicatedService(sim, ["n1", "n2", "n3"], app)


def drive_join(sim, service, budget_ops=40):
    budget = [budget_ops]

    def ops():
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        return ("set", (f"k{budget[0] % 5}", budget[0]), 64)

    client = service.make_client("c1", ops, ClientParams(start_delay=0.2))
    service.reconfigure_at(0.4, ["n1", "n2", "n4"])
    done = sim.run_until(lambda: client.finished, timeout=30.0)
    sim.run(until=sim.now + 2.0)
    return client, done


class TestTransferTask:
    def test_round_robin_sources(self):
        task = TransferTask(epoch=1, sources=[node_id("a"), node_id("b")])
        assert [task.pick_source() for _ in range(4)] == ["a", "b", "a", "b"]
        assert task.attempts == 4


class TestSingleShotTransfer:
    def test_joiner_gets_state(self):
        sim = Simulator(seed=31)
        service = make_service(sim)
        client, done = drive_join(sim, service)
        assert done
        joiner = service.replicas[node_id("n4")]
        assert joiner.epoch_runtime(1).start_state_ready
        assert len(joiner.state.inner) >= 5000

    def test_transfer_bytes_hit_the_wire(self):
        sim = Simulator(seed=32)
        service = make_service(sim, preload=10_000)
        drive_join(sim, service)
        by_type = sim.network.stats.bytes_by_type
        assert by_type.get("SnapshotReply", 0) > 10_000 * 80

    def test_join_lands_in_one_reply(self):
        sim = Simulator(seed=33)
        service = make_service(sim)
        client, done = drive_join(sim, service)
        assert done
        joiner = service.replicas[node_id("n4")]
        assert joiner.epoch_runtime(1).start_state_ready
        assert len(joiner.state.inner) >= 5000
        # The whole snapshot travels in one reply, not in pieces.
        stats = sim.network.stats
        snapshot_size = service.replicas[node_id("n1")].transfer.snapshots[1][1]
        assert stats.by_type.get("SnapshotReply", 0) == 1
        assert stats.bytes_by_type["SnapshotReply"] >= snapshot_size

    def test_joiner_state_matches_members(self):
        sim = Simulator(seed=35)
        service = make_service(sim)
        drive_join(sim, service)
        joiner = service.replicas[node_id("n4")]
        for member in ("n1", "n2"):
            survivor = service.replicas[node_id(member)]
            assert joiner.state.snapshot() == survivor.state.snapshot()

    def test_resumes_across_source_crash(self):
        sim = Simulator(seed=36)
        # Slow the pipe so the transfer is in flight when a source dies.
        sim.network.latency.bandwidth = 2_000_000.0
        service = make_service(sim, preload=20_000)
        budget = [30]

        def ops():
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            return ("set", (f"k{budget[0] % 5}", budget[0]), 64)

        client = service.make_client("c1", ops, ClientParams(start_delay=0.2))
        service.reconfigure_at(0.4, ["n1", "n2", "n4"])
        # Crash a source mid-transfer; the retry asks the others.
        sim.at(0.6, service.replicas[node_id("n3")].crash)
        done = sim.run_until(lambda: client.finished, timeout=40.0)
        assert done
        sim.run(until=sim.now + 3.0)
        joiner = service.replicas[node_id("n4")]
        assert joiner.epoch_runtime(1).start_state_ready
        assert joiner.transfer.task.attempts > 3  # every source, n3 included
        survivor = service.replicas[node_id("n1")]
        assert joiner.state.snapshot() == survivor.state.snapshot()

    def test_survives_lossy_network(self):
        sim = Simulator(seed=37, latency=LatencyModel(drop_probability=0.08))
        service = make_service(sim, preload=8_000)
        client, done = drive_join(sim, service)
        assert done
        joiner = service.replicas[node_id("n4")]
        sim.run_until(
            lambda: joiner.epoch_runtime(1) is not None
            and joiner.epoch_runtime(1).start_state_ready,
            timeout=30.0,
        )
        assert joiner.epoch_runtime(1).start_state_ready
