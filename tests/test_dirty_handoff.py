"""Tests for the seal-time tail rescue (``_overlap_sealed_tail``).

At the seal, the outgoing engine's still-awaiting payloads are
re-proposed into the incoming epoch instead of waiting for the old
configuration to decide them (safe: exactly-once apply dedups, so the
worst case is a command agreed twice and applied once). This began as
one half of a "dirty" hand-off mode — hence the file and counter names —
and is now what every member does at every seal.
"""

from repro.apps.kvstore import KvStateMachine
from repro.core.service import ReplicatedService
from repro.types import Command, CommandId, client_id, node_id
from tests.conftest import run_kv_service

BACK_TO_BACK = [(1.0, ["n2", "n3", "n4"]), (1.5, ["n3", "n4", "n5"])]


class TestDirtyEndToEnd:
    def test_converges_under_back_to_back_reconfigs(self, sim):
        service, clients, finished = run_kv_service(
            sim, n_ops=60, client_count=2, reconfigs=BACK_TO_BACK,
        )
        assert finished
        assert service.newest_epoch() == 2
        live = service.live_members()
        states = [r.state.snapshot() for r in live if r.state is not None]
        assert states and all(s == states[0] for s in states)

    def test_overlap_fires_on_sealed_tails(self, sim):
        service, clients, finished = run_kv_service(
            sim, n_ops=60, client_count=2, reconfigs=BACK_TO_BACK,
        )
        assert finished
        total = sum(r.dirty_overlaps for r in service.replicas.values())
        assert total > 0, "no sealed engine had an awaiting tail to overlap"


class TestOverlapSealedTail:
    def test_seal_reproposes_awaiting_payloads(self, sim):
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        sim.run(until=1.0)  # settle the epoch-0 election
        replica = service.replicas[node_id("n1")]
        runtime = replica.epoch_runtime(0)
        # A payload parked in the engine, not yet decided, when the seal
        # lands — the stranded tail the overlap exists for.
        payload = Command(
            CommandId(client_id("tail"), 1), "set", ("stranded", 7), 64
        )
        runtime.engine.awaiting[payload.cid] = payload
        service.reconfigure(["n1", "n2", "n4"])
        sim.run(until=sim.now + 3.0)
        assert replica.dirty_overlaps >= 1
        # The overlap carried it into epoch 1, where it was agreed and
        # applied exactly once.
        assert replica.state.snapshot()["inner"]["stranded"] == 7
        assert payload.cid in replica._replies

    def test_empty_tail_is_a_noop(self, sim):
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        sim.run(until=1.0)
        replica = service.replicas[node_id("n1")]
        replica._overlap_sealed_tail(replica.epoch_runtime(0))
        assert replica.dirty_overlaps == 0
