"""Tests for the one-call verification API."""

import pytest

from repro.errors import VerificationError
from repro.sim.runner import Simulator
from repro.verify.suite import verify_run
from tests.conftest import run_kv_service


class TestVerifyRun:
    def test_clean_run_reports_coverage(self):
        sim = Simulator(seed=921)
        service, clients, finished = run_kv_service(
            sim, n_ops=40, client_count=2, reconfigs=[(0.4, ("n1", "n2", "n4"))]
        )
        assert finished
        report = verify_run(service.replicas.values(), clients)
        assert report.operations == 80
        assert report.pending_operations == 0
        assert report.kv_keys_checked > 0
        assert report.epochs == 2
        assert "linearizable" in str(report)

    def test_detects_forged_reply(self):
        sim = Simulator(seed=922)
        service, clients, finished = run_kv_service(sim, n_ops=30)
        assert finished
        # Forge a client record: pretend a get returned a wrong value.
        victim = clients[0].records[-1]
        if victim.op != "get":
            victim = next(r for r in reversed(clients[0].records) if r.op == "get")
        victim.value = "FORGED"
        with pytest.raises(VerificationError):
            verify_run(service.replicas.values(), clients)

    def test_linearizability_check_can_be_skipped(self):
        sim = Simulator(seed=923)
        service, clients, finished = run_kv_service(sim, n_ops=20)
        assert finished
        report = verify_run(
            service.replicas.values(), clients, check_linearizability=False
        )
        assert report.kv_keys_checked == 0  # Wing-Gong skipped...
        assert report.replayed > 0  # ...the replay oracle still runs
        # and still catches a forged reply on its own.
        clients[0].records[-1].value = "FORGED"
        with pytest.raises(VerificationError, match="reply mismatch"):
            verify_run(
                service.replicas.values(), clients, check_linearizability=False
            )

    def test_replays_every_caught_up_founding_member(self):
        sim = Simulator(seed=921)
        service, clients, finished = run_kv_service(
            sim, n_ops=40, client_count=2, reconfigs=[(0.4, ("n1", "n2", "n4"))]
        )
        assert finished
        sim.run(until=sim.now + 1.0)
        report = verify_run(service.replicas.values(), clients)
        # n1 and n2 stayed members from epoch 0; retired n3 and the
        # mid-log joiner n4 are not replayed.
        assert report.replayed == 2 * 80

    def test_counts_pending_operations(self):
        sim = Simulator(seed=924)
        # Stop mid-run so a client has an outstanding op.
        service, clients, finished = run_kv_service(
            sim, n_ops=10_000, until=0.6
        )
        assert not finished
        report = verify_run(service.replicas.values(), clients)
        assert report.pending_operations >= 1
