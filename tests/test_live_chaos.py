"""End-to-end chaos: a seeded failure schedule against a live cluster.

One wall-clock run of the canonical scenario (EXPERIMENTS T10): crash and
restart a follower, partition the epoch-0 leader, drive a live
RECONFIGURE that votes the unreachable leader out mid-partition, heal,
and check the client-observed history for linearizability — the
``chaos`` cell of the storm loop, as ``repro storm chaos`` runs it in
CI. Budgeted at 60 s wall clock like the other live tests.
"""

import random
import threading
import time

import pytest

from repro.net.chaos import HistoryRecorder
from repro.net.client import LiveClient
from repro.net.cluster import LocalCluster
from repro.net.observe import poll_cluster
from repro.net.storm import run_storm_scenario
from repro.verify.histories import History, dump_jsonl, load_jsonl
from repro.verify.linearizability import check_kv_linearizable

pytestmark = [pytest.mark.live, pytest.mark.slow]

WALL_CLOCK_BUDGET = 60.0


class TestLiveChaos:
    def test_canonical_scenario_is_linearizable(self, tmp_path):
        started = time.monotonic()
        report = run_storm_scenario("chaos", seed=42, log_dir=tmp_path / "logs")
        elapsed = time.monotonic() - started
        assert report.ok, "\n".join(report.lines())

        # The schedule executed fully, in plan order, at its offsets.
        names = [type(i.action).__name__ for i in report.injections]
        assert names == ["CrashAt", "RestartAt", "PartitionAt", "HealAt"]
        for injection in report.injections:
            assert injection.applied_at >= injection.scheduled_at - 0.05
        partition = report.injections[2]
        # The leader was isolated while the epoch was cut under it...
        assert partition.action.side_a == ("n1",)
        assert partition.acks, "no replica acknowledged the partition"
        # ...and the reconfiguration landed: n1 voted out, joiner adopted.
        assert report.reconfigured
        assert "n1" not in report.final_members
        assert "n4" in report.final_members

        # The service stayed correct under all of it.
        assert report.linearizable.ok
        assert len(report.history.completed) > 50
        # Rules were pushed over the wire without a single failed ack.
        assert not [e for e in report.errors if "push" in e], report.errors

        # The recorded evidence survives a round-trip to disk and still
        # passes the checker offline (the `repro storm --history` path).
        path = tmp_path / "history.jsonl"
        dump_jsonl(report.history, path)
        reloaded = load_jsonl(path)
        assert len(reloaded) == len(report.history)
        assert check_kv_linearizable(reloaded).ok

        assert elapsed < WALL_CLOCK_BUDGET, f"chaos scenario took {elapsed:.1f}s"

    def test_batched_commit_path_is_linearizable(self, tmp_path):
        """T14 acceptance: the batched, pipelined commit path survives the
        canonical failure schedule — including the mid-load RECONFIGURE —
        and the client-observed history still passes Wing–Gong. Batching
        must demultiplex per-command replies correctly and must not let a
        batch straddle the epoch cut."""
        started = time.monotonic()
        report = run_storm_scenario(
            "chaos", seed=42, log_dir=tmp_path / "logs", batching=True
        )
        elapsed = time.monotonic() - started
        assert report.ok, "\n".join(report.lines())
        assert report.reconfigured
        assert report.linearizable.ok
        assert len(report.history.completed) > 50
        assert elapsed < WALL_CLOCK_BUDGET, f"batched chaos took {elapsed:.1f}s"

    def test_one_slot_per_command_is_linearizable(self, tmp_path):
        """``--batch-max 1`` is the one-slot-per-command commit path; no
        bench cell pins it yet, so it is kept honest here: four concurrent
        callers on a durable cluster through a follower SIGKILL and a
        RECONFIGURE that replaces the dead member, checked by Wing–Gong."""
        started = time.monotonic()
        callers, keys = 4, 8
        stop = threading.Event()
        recorders: list[HistoryRecorder] = []
        errors: list[BaseException] = []
        with LocalCluster(
            replicas=3, reserve=1, seed=24, log_dir=tmp_path / "logs",
            durable=True, batch_max=1,
        ) as cluster:
            cluster.start(timeout=20.0)
            joiner = cluster.reserved()[0]
            cluster.spawn(joiner)
            cluster.wait_ready([joiner], timeout=15.0)
            t0 = time.monotonic()

            def caller(index: int) -> None:
                rng = random.Random(24 + index)
                try:
                    with LiveClient(
                        f"caller{index}", cluster.addresses,
                        view=cluster.initial, request_timeout=0.5,
                    ) as client:
                        recorder = HistoryRecorder(client, t0=t0)
                        recorders.append(recorder)
                        written = 0
                        while not stop.is_set():
                            key = f"k{rng.randrange(keys)}"
                            if rng.random() < 0.7:
                                written += 1
                                recorder.submit(
                                    "set", (key, index * 100_000 + written),
                                    deadline=6.0,
                                )
                            else:
                                recorder.submit("get", (key,), size=32, deadline=6.0)
                            time.sleep(0.005)
                        for i in range(index, keys, callers):
                            recorder.submit("get", (f"k{i}",), size=32, deadline=15.0)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)

            threads = [
                threading.Thread(target=caller, args=(i,), daemon=True)
                for i in range(callers)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.5)
            cluster.kill("n2")
            time.sleep(0.5)
            with LiveClient("admin", cluster.addresses, view=cluster.initial) as admin:
                admin.reconfigure(["n1", "n3", joiner], deadline=25.0)
            time.sleep(1.0)
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            live = [n for n, proc in cluster.procs.items() if proc.poll() is None]
            fetched, fetch_errors = poll_cluster(cluster.addresses, live, timeout=5.0)
        assert not errors, errors
        assert not fetch_errors, fetch_errors

        # One command per slot everywhere, and enough of them to matter.
        for node, metrics in fetched.items():
            sizes = metrics.snapshot.histograms["paxos.batch_size"]
            assert sizes["max"] <= 1, (node, sizes)
        assert fetched["n1"].snapshot.counters["paxos.decided"] > 100

        history = History([op for r in recorders for op in r.operations])
        assert len(history.completed) > 200
        result = check_kv_linearizable(history)
        assert result.ok, result
        elapsed = time.monotonic() - started
        assert elapsed < WALL_CLOCK_BUDGET, f"one-slot chaos took {elapsed:.1f}s"
