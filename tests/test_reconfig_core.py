"""Tests for the composition protocol: seals, orphans, transfer, pipelining."""

import pytest

from repro.apps.kvstore import KvStateMachine
from repro.consensus.multipaxos import MultiPaxosEngine
from repro.core.client import ClientParams
from repro.core.command import ReconfigCommand
from repro.core.reconfig import ReconfigParams, ReconfigurableReplica
from repro.core.service import ReplicatedService
from repro.errors import ProtocolError
from repro.sim.runner import Simulator
from repro.types import (
    CommandId,
    Configuration,
    Membership,
    client_id,
    node_id,
)
from tests.conftest import run_kv_service


class TestBootstrap:
    def test_founding_member_starts_epoch_zero(self, sim):
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        replica = service.replicas[node_id("n1")]
        assert replica.newest_epoch == 0
        runtime = replica.epoch_runtime(0)
        assert runtime.start_state_ready
        assert runtime.engine is not None

    def test_bootstrap_outside_membership_rejected(self, sim):
        config = Configuration(0, Membership.of("n1"))
        with pytest.raises(ProtocolError):
            ReconfigurableReplica(
                sim,
                node_id("outsider"),
                KvStateMachine,
                ReconfigParams(engine_factory=MultiPaxosEngine.factory()),
                initial_config=config,
            )

    def test_joining_replica_waits_for_announce(self, sim):
        replica = ReconfigurableReplica(
            sim,
            node_id("n9"),
            KvStateMachine,
            ReconfigParams(engine_factory=MultiPaxosEngine.factory()),
        )
        sim.run(until=0.5)
        assert replica.newest_epoch == -1
        assert replica.chain == {}


class TestSealAndCut:
    def test_reconfig_seals_epoch_and_opens_next(self, sim):
        service, clients, finished = run_kv_service(
            sim, n_ops=50, reconfigs=[(0.4, ("n1", "n2", "n4"))]
        )
        assert finished
        for node in ("n1", "n2"):
            replica = service.replicas[node_id(node)]
            epoch0 = replica.epoch_runtime(0)
            assert epoch0.sealed
            assert isinstance(epoch0.effective[epoch0.cut_slot], ReconfigCommand)
            assert replica.epoch_runtime(1) is not None

    def test_all_members_agree_on_cut(self, sim):
        service, _, finished = run_kv_service(
            sim, n_ops=80, reconfigs=[(0.4, ("n1", "n2", "n4"))], client_count=2
        )
        assert finished
        cuts = {
            service.replicas[node_id(n)].epoch_runtime(0).cut_slot
            for n in ("n1", "n2", "n3")
        }
        assert len(cuts) == 1

    def test_second_reconfig_extends_chain(self, sim):
        service, _, finished = run_kv_service(
            sim,
            n_ops=80,
            reconfigs=[(0.4, ("n1", "n2", "n4")), (0.8, ("n1", "n4", "n5"))],
        )
        assert finished
        assert service.newest_epoch() == 2

    def test_duplicate_reconfig_request_is_single_epoch(self, sim):
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        # Same admin command delivered to every replica: engine-level key
        # dedup must produce exactly one epoch transition.
        sim.at(0.3, lambda: service.reconfigure(["n1", "n2", "n4"]))
        sim.run(until=2.0)
        assert service.newest_epoch() == 1

    def test_noop_reconfig_same_membership_allowed(self, sim):
        service, _, finished = run_kv_service(
            sim, n_ops=30, reconfigs=[(0.4, ("n1", "n2", "n3"))]
        )
        assert finished
        assert service.newest_epoch() == 1
        replica = service.replicas[node_id("n1")]
        assert replica.epoch_runtime(1).config.members == Membership.of("n1", "n2", "n3")


class TestStateTransfer:
    def test_joiner_receives_boundary_state(self, sim):
        service, clients, finished = run_kv_service(
            sim, n_ops=60, reconfigs=[(0.4, ("n1", "n2", "n4"))]
        )
        assert finished
        joiner = service.replicas[node_id("n4")]
        sim.run_until(lambda: joiner.epoch_runtime(1) is not None
                      and joiner.epoch_runtime(1).start_state_ready, timeout=5.0)
        runtime = joiner.epoch_runtime(1)
        assert runtime.start_state_ready
        assert joiner.state is not None

    def test_joiner_state_matches_survivors(self, sim):
        service, clients, finished = run_kv_service(
            sim, n_ops=100, reconfigs=[(0.4, ("n1", "n2", "n4"))]
        )
        assert finished
        sim.run(until=sim.now + 1.0)
        survivor = service.replicas[node_id("n1")]
        joiner = service.replicas[node_id("n4")]
        assert survivor.state is not None and joiner.state is not None
        assert joiner.state.snapshot() == survivor.state.snapshot()
        assert joiner.virtual_index == survivor.virtual_index

    def test_transfer_retries_through_crashed_source(self, sim):
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        sim.at(0.3, lambda: service.reconfigure(["n2", "n3", "n4"]))
        # Crash one potential snapshot source right away; another serves.
        sim.at(0.31, service.replicas[node_id("n1")].crash)
        sim.run(until=4.0)
        joiner = service.replicas[node_id("n4")]
        assert joiner.epoch_runtime(1) is not None
        assert joiner.epoch_runtime(1).start_state_ready


class TestSpeculationGate:
    def test_stw_defers_engine_until_state_ready(self, sim):
        service = ReplicatedService(
            sim, ["n1", "n2", "n3"], KvStateMachine, pipeline_depth=1
        )
        # Track engine-start traces for the joiner's epoch.
        sim.at(0.3, lambda: service.reconfigure(["n1", "n2", "n4"]))
        sim.run(until=3.0)
        joiner = service.replicas[node_id("n4")]
        runtime = joiner.epoch_runtime(1)
        assert runtime is not None
        assert runtime.engine_started
        starts = [
            r for r in sim.trace.records(category="engine-start", source="n4")
        ]
        assert starts and starts[0].detail["speculative"] is False

    def test_speculative_starts_engine_before_state(self, sim):
        service = ReplicatedService(
            sim, ["n1", "n2", "n3"], KvStateMachine, pipeline_depth=None
        )
        # Preload big state so the transfer is slow enough to observe.
        sim.network.latency.bandwidth = 1_000_000.0

        def big_app():
            app = KvStateMachine()
            app.preload(20_000)
            return app

        service.app_factory = big_app
        for replica in service.replicas.values():
            replica.app_factory = big_app
        sim.at(0.3, lambda: service.reconfigure(["n1", "n2", "n4"]))
        sim.run(until=3.0)
        starts = [r for r in sim.trace.records(category="engine-start", source="n4")]
        assert starts and starts[0].detail["speculative"] is True

    def test_depth_two_allows_one_epoch_ahead(self, sim):
        service, _, finished = run_kv_service(
            sim,
            n_ops=60,
            pipeline_depth=2,
            reconfigs=[(0.4, ("n1", "n2", "n4")), (0.6, ("n1", "n2", "n5"))],
        )
        assert finished
        assert service.newest_epoch() == 2


class TestOrphansAndRetirement:
    def test_orphaned_commands_reproposed_not_lost(self, sim):
        # Saturate with several clients so some commands are decided after
        # the cut and must hop to the next epoch.
        service, clients, finished = run_kv_service(
            sim, n_ops=60, client_count=4, reconfigs=[(0.35, ("n1", "n2", "n4"))]
        )
        assert finished
        total = sum(len(c.records) for c in clients)
        assert total == 240

    def test_retired_node_redirects(self, sim):
        service, clients, finished = run_kv_service(
            sim, n_ops=60, reconfigs=[(0.4, ("n1", "n2", "n4"))]
        )
        assert finished
        retired = service.replicas[node_id("n3")]
        assert retired.is_retired
        live = service.live_members()
        assert node_id("n3") not in [r.node for r in live]

    def test_engine_gc_stops_old_epoch(self, sim):
        service, _, finished = run_kv_service(
            sim, n_ops=40, reconfigs=[(0.4, ("n1", "n2", "n4"))]
        )
        assert finished
        sim.run(until=sim.now + 2.0)  # past ENGINE_GC_GRACE
        survivor = service.replicas[node_id("n1")]
        assert survivor.epoch_runtime(0).engine.stopped

    def test_reply_cache_answers_duplicate_requests(self, sim):
        service, clients, finished = run_kv_service(sim, n_ops=20)
        assert finished
        replica = service.replicas[node_id("n1")]
        from repro.core.client import ClientRequest

        command = None
        for (payload, epoch, vindex) in replica.committed:
            if hasattr(payload, "cid") and not isinstance(payload, ReconfigCommand):
                command = payload
                break
        inbox = []
        sim.network.register(node_id("probe"), lambda m: inbox.append(m))
        replica.on_message(ClientRequest(command, node_id("probe")), node_id("probe"))
        sim.run(until=sim.now + 0.1)
        assert len(inbox) == 1
        assert inbox[0].payload.cid == command.cid


class TestVirtualLog:
    def test_virtual_index_continuous_across_epochs(self, sim):
        service, _, finished = run_kv_service(
            sim, n_ops=60, reconfigs=[(0.4, ("n1", "n2", "n4"))]
        )
        assert finished
        replica = service.replicas[node_id("n1")]
        indices = [v for _, _, v in replica.committed]
        assert indices == list(range(len(indices)))

    def test_epochs_in_committed_are_monotonic(self, sim):
        service, _, finished = run_kv_service(
            sim, n_ops=60, reconfigs=[(0.4, ("n1", "n2", "n4"))]
        )
        assert finished
        replica = service.replicas[node_id("n1")]
        epochs = [e for _, e, _ in replica.committed]
        assert epochs == sorted(epochs)
