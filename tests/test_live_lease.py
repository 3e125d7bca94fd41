"""Live lease and follower reads: the TCP runtime's local read paths.

Three end-to-end checks against real ``repro serve`` subprocesses:

* a lease-mode cluster answers reads from the leaseholder's local state
  (wire-visible via the ``virtual_index == -1`` sentinel and the
  ``smr.lease_reads`` counter) and the values are read-your-writes
  correct;
* a follower-mode cluster answers reads locally at a *follower* within
  the staleness bound;
* the canonical chaos schedule — crash, restart, then partition the
  epoch-0 leader (the leaseholder) away from the majority while a live
  RECONFIGURE votes it out — leaves a lease-mode cluster's client
  history linearizable under Wing–Gong, with lease reads actually
  served during the run.

Budgeted like the other live tests so a wedged cluster fails fast.
"""

import time

import pytest

from repro.net.client import LiveClient
from repro.net.cluster import LocalCluster
from repro.net.observe import poll_cluster
from repro.net.storm import run_storm_scenario

pytestmark = [pytest.mark.live, pytest.mark.slow]

WALL_CLOCK_BUDGET = 60.0


def _read_until_local(client, key, expect, deadline_s=10.0):
    """Read ``key`` until a reply carries the local-read sentinel.

    Right after startup the leader may not have anchored a lease yet (a
    follower may not have heard a heartbeat yet); such reads fall back
    to the ordered path and carry a real virtual index. The value must
    be correct either way — only the serving path varies.
    """
    deadline = time.monotonic() + deadline_s
    while True:
        reply = client.submit("get", (key,), size=32, deadline=10.0)
        assert reply.value == expect
        if reply.virtual_index == -1:
            return reply
        if time.monotonic() > deadline:
            raise AssertionError("no local read served within the deadline")
        time.sleep(0.05)


def _counter_total(cluster, name):
    books = {n: cluster.addresses[n] for n in cluster.initial}
    fetched, _ = poll_cluster(books)
    return sum(
        int(snap.snapshot.counters.get(name, 0))
        for snap in fetched.values()
    )


class TestLiveLeaseReads:
    def test_lease_mode_serves_reads_locally(self, tmp_path):
        started = time.monotonic()
        with LocalCluster(
            replicas=3, seed=13, log_dir=tmp_path, read_mode="lease"
        ) as cluster:
            cluster.start(timeout=20.0)
            with LiveClient(
                "t-lease", cluster.addresses, view=cluster.initial
            ) as client:
                for i in range(5):
                    client.submit("set", (f"k{i}", i), deadline=10.0)
                reply = _read_until_local(client, "k3", 3)
                assert reply.virtual_index == -1
                # Read-your-writes through the lease path: a write the
                # lease read must observe, immediately before it.
                client.submit("set", ("k3", 99), deadline=10.0)
                reply = client.submit("get", ("k3",), size=32, deadline=10.0)
                assert reply.value == 99
            assert _counter_total(cluster, "smr.lease_reads") >= 1
        elapsed = time.monotonic() - started
        assert elapsed < WALL_CLOCK_BUDGET, f"lease live took {elapsed:.1f}s"

    def test_follower_mode_serves_reads_at_followers(self, tmp_path):
        started = time.monotonic()
        with LocalCluster(
            replicas=3, seed=17, log_dir=tmp_path, read_mode="follower"
        ) as cluster:
            cluster.start(timeout=20.0)
            with LiveClient(
                "t-writer", cluster.addresses, view=cluster.initial
            ) as writer:
                writer.submit("set", ("k", 1), deadline=10.0)
            # Pin a reader to a follower: n1 campaigns first and leads
            # epoch 0, so n2 is a follower. A single-node view means a
            # redirect cannot re-aim the client at the leader.
            with LiveClient(
                "t-reader", cluster.addresses, view=["n2"]
            ) as reader:
                reply = _read_until_local(reader, "k", 1)
                assert reply.virtual_index == -1
            assert _counter_total(cluster, "smr.follower_reads") >= 1
        elapsed = time.monotonic() - started
        assert elapsed < WALL_CLOCK_BUDGET, f"follower live took {elapsed:.1f}s"


class TestLiveLeaseChaos:
    def test_partitioned_leaseholder_mid_reconfigure_is_linearizable(
        self, tmp_path
    ):
        """T15 acceptance: the canonical schedule isolates the epoch-0
        leader — in lease mode, the leaseholder — right before a live
        RECONFIGURE votes it out. The deposed leaseholder must refuse
        reads once its lease lapses (quorum overlap + vote stickiness
        guarantee the new epoch cannot form sooner), so the client
        history stays linearizable."""
        started = time.monotonic()
        report = run_storm_scenario(
            "chaos", seed=42, log_dir=tmp_path / "logs", read_mode="lease"
        )
        elapsed = time.monotonic() - started
        assert report.ok, "\n".join(report.lines())
        assert report.reconfigured
        assert report.linearizable.ok
        # The partitioned node was the epoch-0 leader (= leaseholder) and
        # the reconfiguration removed it.
        partition = next(
            i for i in report.injections
            if type(i.action).__name__ == "PartitionAt"
        )
        assert partition.action.side_a == ("n1",)
        assert "n1" not in report.final_members
        # The verdict covered real lease traffic, not a silent log-path
        # fallback.
        lease_reads = sum(
            counters.get("smr.lease_reads", 0)
            for counters in report.counters.values()
        )
        assert lease_reads >= 1, report.counters
        assert len(report.history.completed) > 50
        assert elapsed < WALL_CLOCK_BUDGET, f"lease chaos took {elapsed:.1f}s"
