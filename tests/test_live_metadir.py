"""Live replicated-director tests: real metadir group, real SIGKILL.

The control-plane acceptance story for the replicated director:

* the headline crash: SIGKILL the director replica driving a split in
  the window between the retire committing at the source and the
  install being submitted at the target — a surviving replica must roll
  the intent forward from the replicated intent table, the map chain
  must stay linear and gapless, and no key may be lost;
* director availability is not on the data path: with the entire
  metadir group dead, a client with a warm map cache keeps serving
  reads and writes, and a map refresh fails over across the surviving
  replicas while a metadir majority lives.

One subprocess per replica (three per data group plus the three-replica
metadir group), so the file rides the ``live`` marker like the other
subprocess suites.
"""

import time

import pytest

from repro.shard.client import ShardClientError
from repro.shard.cluster import ShardedCluster

pytestmark = [pytest.mark.live, pytest.mark.slow]


class TestDirectorFailover:
    def test_leader_killed_between_retire_and_install(self):
        """The acceptance crash window.

        ``director_hold_ms`` widens the gap between the retire step and
        the install submit so the SIGKILL deterministically lands inside
        it: the range is captured out of g1 but installed nowhere, and
        only the replicated intent table knows. A survivor must finish
        the move — same steps, same deterministic client identities —
        and the data must all be there on the other side.
        """
        keys = [f"k{i:02d}" for i in range(12)]
        with ShardedCluster(
            1,
            replicas_per_group=3,
            spare_groups=1,
            director_replicas=3,
            seed=11,
            director_hold_ms=1200.0,
            director_takeover_ms=800.0,
        ) as cluster:
            cluster.start()
            director = cluster.director
            with cluster.client("t-fo-load") as client:
                for i, key in enumerate(keys):
                    assert client.submit("set", (key, i)).value == "ok"

            intent = director.begin("split", {"group": "g1", "target": "g2"})
            iid = int(intent["id"])

            # Wait for the retire to commit, then kill the claimant
            # inside the hold window (retired, install not submitted).
            claimant = None
            give_up_at = time.monotonic() + 20.0
            while time.monotonic() < give_up_at:
                status = director.status(iid)
                if "retired" in status.get("steps", ()):
                    claimant = status.get("claimed_by")
                    break
                time.sleep(0.02)
            assert claimant, "the retire step never committed"
            cluster.kill_director(claimant)

            done = director.wait(iid, deadline=30.0)
            assert done["status"] == "done"
            # A *different* replica rolled it forward.
            assert done["claimed_by"] != claimant
            assert "retired" in done["steps"]

            # The committed chain is linear and gapless — exactly one
            # version per transition, no double-install.
            versions = [entry["version"] for entry in director.history()]
            assert versions == list(range(1, len(versions) + 1))

            # The split really happened and carried every key across.
            final_map = director.shard_map()
            assert final_map.ranges_of("g2")
            with cluster.client("t-fo-check") as checker:
                assert checker.map_version == final_map.version
                for i, key in enumerate(keys):
                    reply = checker.submit("get", (key,), size=32)
                    assert reply.value == i, key


class TestDirectorAvailability:
    def test_warm_caches_outlive_the_whole_director_group(self):
        """Map reads fail over while a metadir majority lives; once all
        are dead, warm clients keep serving from their cached map — the
        control plane is not on the data path."""
        with ShardedCluster(
            2, replicas_per_group=3, director_replicas=3, seed=7
        ) as cluster:
            cluster.start()
            names = list(cluster.director_cluster.initial)
            with cluster.client("t-warm") as client:
                for i in range(16):
                    assert client.submit("set", (f"w{i}", i)).value == "ok"

                # One dead replica degrades a refresh to a failover.
                cluster.kill_director(names[0])
                refreshed = client.refresh_map(timeout=5.0)
                assert refreshed.version == client.map_version

                # The whole group dead: refresh fails crisply...
                for name in names[1:]:
                    cluster.kill_director(name)
                with pytest.raises(ShardClientError):
                    client.refresh_map(timeout=1.0)

                # ...but the warm cache keeps routing both directions.
                for i in range(16):
                    reply = client.submit("get", (f"w{i}",), size=32)
                    assert reply.value == i
                assert client.submit("set", ("w0", "over")).value == "ok"
                assert client.submit("get", ("w0",), size=32).value == "over"
