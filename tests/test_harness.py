"""Tests for the benchmark harness and the raw static service."""

import pytest

from repro.bench.harness import DRAIN_BOUND, KINDS, RunResult, build_service, run_experiment
from repro.bench.rawstatic import RawPaxosService
from repro.errors import ConfigurationError
from repro.net.storm import build_storm_plan
from repro.workload.schedules import ReconfigStep


class TestBuildService:
    @pytest.mark.parametrize("kind", KINDS)
    def test_all_kinds_constructible(self, kind):
        from repro.apps.kvstore import KvStateMachine
        from repro.sim.runner import Simulator

        sim = Simulator(seed=1)
        service = build_service(kind, sim, ["n1", "n2", "n3"], KvStateMachine)
        assert service is not None

    def test_unknown_kind_rejected(self):
        from repro.apps.kvstore import KvStateMachine
        from repro.sim.runner import Simulator

        with pytest.raises(ConfigurationError):
            build_service("nope", Simulator(seed=1), ["n1"], KvStateMachine)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("speculative", engine="quantum", run_for=0.1)


class TestRunExperiment:
    def test_finite_ops_complete(self):
        result = run_experiment(
            "speculative", seed=3, clients=2, ops_per_client=20, run_for=20.0
        )
        assert result.collector.count == 40
        assert result.pool.all_finished

    def test_timed_run_produces_throughput(self):
        result = run_experiment("speculative", seed=3, clients=2, run_for=1.0)
        assert result.throughput() > 50
        assert result.duration == pytest.approx(1.0)

    def test_orders_lead_commits_during_speculation(self):
        schedule = [ReconfigStep(0.8, ("n4", "n5", "n6"))]
        result = run_experiment(
            "speculative",
            seed=4,
            clients=2,
            run_for=3.0,
            preload=20_000,
            schedule=schedule,
        )
        first_order = result.orders.first_commit_in_epoch(1)
        first_commit = result.commits.first_commit_in_epoch(1)
        assert first_order is not None and first_commit is not None
        assert first_order <= first_commit

    def test_raft_orders_equal_commits(self):
        result = run_experiment("raft", seed=3, clients=2, run_for=1.0)
        assert result.orders is result.commits

    def test_message_accounting(self):
        result = run_experiment("speculative", seed=3, clients=2, run_for=1.0)
        assert result.messages_per_op() > 1
        assert result.bytes_per_op() > 100

    def test_raw_static_service_serves_clients(self):
        result = run_experiment(
            "raw-static", seed=5, clients=2, ops_per_client=15, run_for=20.0
        )
        assert result.collector.count == 30

    def test_schedules_apply(self):
        schedule = [ReconfigStep(0.6, ("n1", "n2", "n4"))]
        result = run_experiment(
            "speculative", seed=6, clients=2, run_for=2.0, schedule=schedule
        )
        assert result.service.newest_epoch() == 1

    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("bogus")

    def test_a_timed_run_returns_drained(self):
        # The overlap plan replaces n1 and then n2 under load. Seed 8 used
        # to return with both clients waiting and n5 one decision behind.
        plan = build_storm_plan("overlap", seed=8)
        result = run_experiment(
            "speculative", seed=8, members=plan.initial, schedule=plan.steps,
            failures=plan.schedule, clients=2, run_for=plan.duration,
        )
        assert all(len(c.records) == c.seq for c in result.pool.clients)
        assert max(result.collector.completion_times) <= result.ended_at + DRAIN_BOUND
        members = result.service.live_members()
        assert {r.node for r in members} == {"n3", "n4", "n5"}
        assert len({r.virtual_index for r in members}) == 1
