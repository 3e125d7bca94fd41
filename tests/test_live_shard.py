"""Live sharded-service tests: real groups, real director, real cutover.

Each test spawns one subprocess per replica (three per group, one for
the director), so the whole file rides behind the ``live`` marker like
the other subprocess suites. Coverage:

* a keyspace written through the smart client lands on every serving
  group and reads back correctly (the routing path);
* a split under concurrent load, racing membership churn in the source
  group, keeps the merged client history linearizable across the
  drain-and-cutover (the safety path: the ``shard`` storm cell);
* one group grows and shrinks by a replica — the paper's reconfiguration
  — while the other group and the shard map stay serving (the elastic
  path).
"""

import pytest

from repro.cli import main
from repro.net.storm import run_storm_scenario
from repro.shard.cluster import ShardedCluster
from repro.shard.metadir import ReplicatedShardDirector

pytestmark = [pytest.mark.live, pytest.mark.slow]


class TestLiveRouting:
    def test_keyspace_served_across_groups(self, capsys):
        keys = [f"key-{i:03d}" for i in range(30)]
        with ShardedCluster(3, replicas_per_group=3) as cluster:
            cluster.start()
            shard_map = cluster.shard_map
            assert [a.group for a in shard_map.assignments] == ["g1", "g2", "g3"]
            with cluster.client("t-route") as client:
                for i, key in enumerate(keys):
                    assert client.submit("set", (key, i)).value == "ok"
                spread = client.shard_map.spread(keys)
                assert sum(spread.values()) == len(keys)
                assert all(spread[g] > 0 for g in ("g1", "g2", "g3"))
                # Every key reads back from the group that owns it.
                for i, key in enumerate(keys):
                    assert client.submit("get", (key,), size=32).value == i
            # A handle of its own reads the same map through the log,
            # and so does `repro shard-route`.
            book = cluster.director_addresses()
            with ReplicatedShardDirector(book) as director:
                fetched = director.shard_map()
            assert fetched.version == shard_map.version
            assert fetched.assignments == shard_map.assignments
            spec = ",".join(f"{name}={host}:{port}" for name, (host, port) in book.items())
            capsys.readouterr()
            assert main(["shard-route", "--director", spec, keys[0]]) == 0
            out = capsys.readouterr().out
            assert f"shard map v{shard_map.version} " in out
            assert f"{keys[0]!r} -> point" in out


class TestLiveSplit:
    def test_split_under_load_is_linearizable(self, tmp_path):
        report = run_storm_scenario("shard", seed=42, log_dir=tmp_path / "logs")
        lines = "\n".join(report.lines())
        # Add a g1 replica, split g1 into the spare g2, remove the replica:
        # every step acknowledged, in plan order.
        assert [step["members"][0] for step in report.reconfigs] == [
            "add-replica", "split", "remove-replica",
        ]
        assert report.reconfigured, lines
        # The map chain stayed linear and the spare really took over part
        # of the keyspace (both are topology checks of the shard cell).
        assert not report.failed_checks, lines
        assert report.linearizable.ok, lines
        assert len(report.history.completed) > 50, lines
        assert report.ok, lines


class TestLiveElasticMembership:
    def test_add_then_remove_replica_in_one_group(self):
        with ShardedCluster(2, replicas_per_group=3) as cluster:
            cluster.start()
            version_0 = cluster.shard_map.version
            with cluster.client("t-elastic") as client:
                for i in range(10):
                    client.submit("set", (f"k{i}", i))

                joiner = cluster.add_replica("g1")
                grown = cluster.shard_map
                assert grown.version > version_0
                assert joiner in grown.group_info("g1").members
                assert len(grown.group_info("g1").members) == 4
                # Only g1 changed; g2 kept its original membership.
                assert len(grown.group_info("g2").members) == 3

                # Both groups still serve reads after the reconfiguration.
                for i in range(10):
                    assert client.submit("get", (f"k{i}",), size=32).value == i

                removed = cluster.remove_replica("g1", joiner)
                shrunk = cluster.shard_map
                assert removed == joiner
                assert shrunk.version > grown.version
                assert joiner not in shrunk.group_info("g1").members
                for i in range(10):
                    assert client.submit("get", (f"k{i}",), size=32).value == i
