"""Live crash recovery: kill real replica processes and recover from disk.

Two escalating scenarios against a durable :class:`LocalCluster` (every
replica running with ``--data-dir``):

* kill one replica mid-workload, restart it, confirm over the chaos
  admin endpoint that it *recovered* (non-empty WAL, epochs rebuilt)
  rather than cold-joined, and keep committing;
* then SIGKILL the **entire cluster** — the outage no amnesiac model
  survives, since all in-memory state on every node is gone — restart
  all three from their data directories, and read every key back.

The full client-observed history (including operations in flight across
both outages) is checked with the Wing–Gong linearizability oracle.
Budgeted at 60 s wall clock like the other live tests.
"""

from __future__ import annotations

import time

import pytest

from repro.net.chaos import ChaosController, HistoryRecorder
from repro.net.client import LiveClient
from repro.net.cluster import LocalCluster
from repro.faults import FailureSchedule
from repro.verify.linearizability import check_kv_linearizable

pytestmark = [pytest.mark.live, pytest.mark.slow]

WALL_CLOCK_BUDGET = 60.0


class TestLiveRecovery:
    def test_kill_recover_then_full_cluster_outage(self, tmp_path):
        started = time.monotonic()
        with LocalCluster(
            replicas=3, reserve=0, seed=21, log_dir=tmp_path,
            chaos=True, durable=True,
        ) as cluster:
            cluster.start(timeout=20.0)
            # An idle controller: no schedule to run, just the admin-plane
            # client for recovery_status().
            controller = ChaosController(cluster, FailureSchedule())
            with LiveClient("t-rec", cluster.addresses, view=cluster.initial) as client:
                recorder = HistoryRecorder(client)

                # Phase 1: healthy commits, all durably logged.
                for i in range(8):
                    assert recorder.submit("set", (f"a{i}", i), deadline=10.0)

                # Phase 2: SIGKILL one follower; quorum keeps committing.
                cluster.kill("n2")
                for i in range(4):
                    assert recorder.submit("set", (f"b{i}", i), deadline=15.0)

                # Phase 3: restart it WITH its data directory. The boot
                # must report a real recovery, not a cold join.
                cluster.restart("n2", timeout=15.0)
                status = controller.recovery_status("n2")
                assert status is not None, controller.errors
                assert status["durable"] and status["recovered"]
                assert status["wal_records"] > 0
                assert status["epochs"] >= 1

                for i in range(4):
                    assert recorder.submit("set", (f"c{i}", i), deadline=15.0)

                # Phase 4: the whole cluster dies at once. Amnesiac
                # replicas could never serve the old state again — there
                # would be no survivor to catch up from.
                for name in cluster.initial:
                    cluster.kill(name)
                for name in cluster.initial:
                    cluster.restart(name, wait=False)
                cluster.wait_ready(cluster.initial, timeout=20.0)

                # Every replica should report it recovered from disk.
                for name in cluster.initial:
                    status = controller.recovery_status(name)
                    assert status is not None, (name, controller.errors)
                    assert status["recovered"], (name, status)

                # Phase 5: all pre-outage state is still there.
                for i in range(8):
                    reply = recorder.submit("get", (f"a{i}",), size=32, deadline=20.0)
                    assert reply is not None and reply.value == i
                for i in range(4):
                    reply = recorder.submit("get", (f"b{i}",), size=32, deadline=15.0)
                    assert reply is not None and reply.value == i
                    reply = recorder.submit("get", (f"c{i}",), size=32, deadline=15.0)
                    assert reply is not None and reply.value == i

                history = recorder.history()

        result = check_kv_linearizable(history)
        assert result.ok, result
        assert len(history.completed) >= 28
        elapsed = time.monotonic() - started
        assert elapsed < WALL_CLOCK_BUDGET, f"recovery scenario took {elapsed:.1f}s"
