"""Property tests over boundary transfer: any state size lands intact."""

from hypothesis import given, settings, strategies as st

from repro.apps.kvstore import KvStateMachine
from repro.core.service import ReplicatedService
from repro.core.client import ClientParams
from repro.sim.runner import Simulator
from repro.types import node_id


def run_join(preload: int, seed: int = 931):
    sim = Simulator(seed=seed)

    def app():
        kv = KvStateMachine()
        kv.preload(preload)
        return kv

    service = ReplicatedService(sim, ["n1", "n2", "n3"], app)
    budget = [15]

    def ops():
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        return ("set", (f"k{budget[0]}", budget[0]), 48)

    client = service.make_client("c1", ops, ClientParams(start_delay=0.2))
    service.reconfigure_at(0.4, ["n1", "n2", "n4"])
    sim.run_until(lambda: client.finished, timeout=30.0)
    if sim.now < 0.45:  # the reconfigure event may not have fired yet
        sim.run(until=0.45)
    joiner = service.replicas[node_id("n4")]
    sim.run_until(
        lambda: joiner.epoch_runtime(1) is not None
        and joiner.epoch_runtime(1).start_state_ready,
        timeout=30.0,
    )
    return sim, service, joiner


class TestStateSize:
    @settings(max_examples=10, deadline=None)
    @given(preload=st.integers(min_value=0, max_value=20_000))
    def test_any_state_size_completes_and_matches(self, preload):
        sim, service, joiner = run_join(preload)
        assert joiner.epoch_runtime(1).start_state_ready
        survivor = service.replicas[node_id("n1")]
        sim.run(until=sim.now + 1.0)
        assert joiner.state.snapshot() == survivor.state.snapshot()
        assert len(joiner.state.inner) >= preload

    def test_transfer_wire_bytes_track_snapshot_size(self):
        sim, service, joiner = run_join(preload=5_000)
        reply_bytes = sim.network.stats.bytes_by_type.get("SnapshotReply", 0)
        snapshot_size = service.replicas[node_id("n1")].transfer.snapshots[1][1]
        # The replies carry (at least) the whole snapshot.
        assert reply_bytes >= snapshot_size
