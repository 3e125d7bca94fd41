"""Commit-path campaign tests: WAL group commit, lazy appends, batching
latency bounds, and the pipelined client's coalescing and stall reporting.

The engine-level batching semantics (size cap, ordering, epoch-cut
interaction, linearizability through reconfig) live in
``test_batching.py``; this file covers the pieces the T14 speed campaign
added around them.
"""

import socket
import time

import pytest

from repro.consensus.ballot import Ballot
from repro.consensus.interface import Batch, StaticSmrHost
from repro.consensus.multipaxos import MultiPaxosEngine, PaxosParams
from repro.net.client import LiveClient, LiveClientError
from repro.sim.runner import Simulator
from repro.storage.store import ReplicaStore
from repro.storage.wal import WalWriter, read_wal_file
from repro.types import Command, CommandId, Membership, client_id, node_id


def cmd(seq, client="c"):
    return Command(CommandId(client_id(client), seq), "set", ("k", seq))


# ---------------------------------------------------------------------------
# WAL group commit + lazy appends
# ---------------------------------------------------------------------------


class TestGroupCommit:
    def _writer(self, tmp_path, monkeypatch):
        """A WalWriter whose os.fsync calls are counted."""
        import repro.storage.wal as wal_mod

        calls = []
        real_fsync = wal_mod.os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(wal_mod.os, "fsync", counting_fsync)
        syncs = []
        writer = WalWriter(
            tmp_path / "wal.log", fsync=True, on_sync=syncs.append
        )
        return writer, calls, syncs

    def test_group_window_amortizes_to_one_fsync(self, tmp_path, monkeypatch):
        writer, fsyncs, syncs = self._writer(tmp_path, monkeypatch)
        for i in range(8):
            writer.append(cmd(i + 1), defer_sync=True)
        assert fsyncs == []  # nothing forced yet
        made_durable = writer.sync_deferred()
        assert made_durable == 8
        assert len(fsyncs) == 1
        assert syncs == [8]  # the group-commit size the histogram sees
        writer.close()
        records, torn = read_wal_file(tmp_path / "wal.log")
        assert torn == 0 and len(records) == 8

    def test_empty_window_costs_no_fsync(self, tmp_path, monkeypatch):
        writer, fsyncs, syncs = self._writer(tmp_path, monkeypatch)
        assert writer.sync_deferred() == 0
        assert fsyncs == [] and syncs == []
        writer.close()

    def test_ungrouped_append_syncs_immediately(self, tmp_path, monkeypatch):
        writer, fsyncs, syncs = self._writer(tmp_path, monkeypatch)
        writer.append(cmd(1))
        assert len(fsyncs) == 1 and syncs == [1]
        writer.close()

    def test_lazy_append_never_demands_fsync(self, tmp_path, monkeypatch):
        writer, fsyncs, syncs = self._writer(tmp_path, monkeypatch)
        writer.append(cmd(1), lazy=True)
        assert fsyncs == []
        assert writer.sync_deferred() == 0  # lazy frames are not deferred
        assert fsyncs == []
        # ...but the next natural fsync covers them (fsync covers every
        # byte written before it), and the frame is already readable.
        writer.append(cmd(2))
        assert len(fsyncs) == 1
        writer.close()
        records, torn = read_wal_file(tmp_path / "wal.log")
        assert torn == 0 and [r.cid.seq for r in records] == [1, 2]

    def test_store_group_window_is_reentrant(self, tmp_path):
        store = ReplicaStore(tmp_path / "d")
        handle = store.instance("i")
        with store.group():
            handle.record_accept(0, Ballot(1, node_id("n1")), cmd(1))
            with store.group():
                handle.record_accept(1, Ballot(1, node_id("n1")), cmd(2))
            # Inner close must not sync: the outer window is still open.
            assert store.metrics.counter("wal.fsyncs").value == 0
        assert store.metrics.counter("wal.fsyncs").value == 1
        summary = store.metrics.histogram("wal.group_commit_size").summary()
        assert summary["count"] == 1 and summary["mean"] == 2.0
        store.close()

    def test_decide_records_are_lazy(self, tmp_path):
        """A decide caches a quorum-durable outcome: no fsync of its own."""
        store = ReplicaStore(tmp_path / "d")
        handle = store.instance("i")
        handle.record_accept(0, Ballot(1, node_id("n1")), cmd(1))
        after_accept = store.metrics.counter("wal.fsyncs").value
        assert after_accept == 1  # accepts pay for durability...
        handle.record_decide(0, cmd(1))
        assert store.metrics.counter("wal.fsyncs").value == after_accept
        assert store.metrics.counter("wal.appends").value == 2
        store.close()
        # The lazy record still lands on disk via flush + close.
        store2 = ReplicaStore(tmp_path / "d")
        recovered = store2.instance("i").recover()
        assert recovered is not None and 0 in recovered.decided
        store2.close()


# ---------------------------------------------------------------------------
# Batching latency bound + degenerate batch
# ---------------------------------------------------------------------------


def make_cluster(params, seed=1):
    sim = Simulator(seed=seed)
    members = Membership.of("n1", "n2", "n3")
    hosts = {
        n: StaticSmrHost(sim, n, members, MultiPaxosEngine.factory(params))
        for n in members
    }
    return sim, hosts


class TestFlushLatencyBound:
    def test_single_command_rides_bare_within_delay(self):
        """A trickle must not wait for a full batch, nor for the batch
        timer: a lone command on an idle pipeline is proposed at once, and
        a batch of one is encoded as the bare command (zero byte overhead
        for the degenerate case)."""
        delay = 0.005
        sim, hosts = make_cluster(
            PaxosParams(batch_delay=delay, batch_max=64), seed=11
        )
        sim.run(until=0.1)
        proposed_at = sim.now
        hosts[node_id("n1")].propose(cmd(1))
        done = sim.run_until(
            lambda: len(hosts[node_id("n2")].decisions) > 0, timeout=5.0
        )
        assert done
        decision = hosts[node_id("n2")].decisions[0]
        # Bare command, not a one-element Batch wrapper.
        assert not isinstance(decision.payload, Batch)
        assert decision.payload == cmd(1)
        # Accept, Accepted and Decide at up to 2 ms each (the sim's LAN),
        # and no ``delay`` on top: nothing was in flight to wait behind.
        assert sim.now - proposed_at < 3 * 0.002 + 0.001

    def test_trickle_of_singles_all_flush(self):
        delay = 0.004
        sim, hosts = make_cluster(
            PaxosParams(batch_delay=delay, batch_max=64), seed=12
        )
        sim.run(until=0.1)
        for i in range(5):
            hosts[node_id("n1")].propose(cmd(i + 1))
            sim.run(until=sim.now + 10 * delay)  # gaps far beyond the bound
        total = sum(
            len(d.payload) if isinstance(d.payload, Batch) else 1
            for d in hosts[node_id("n3")].decisions
        )
        assert total == 5
        # Spread-out commands must not have been merged into batches.
        assert all(
            not isinstance(d.payload, Batch)
            for d in hosts[node_id("n3")].decisions
        )


# ---------------------------------------------------------------------------
# Pipelined client: stall reporting
# ---------------------------------------------------------------------------


class TestPipelinedStallReport:
    def test_stall_error_names_unacked_indices(self):
        # A port nobody listens on: every connect attempt is refused, so
        # no op is ever acknowledged and the deadline fires.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        client = LiveClient(
            "c", {"n1": ("127.0.0.1", dead_port)}, request_timeout=0.2
        )
        started = time.monotonic()
        with pytest.raises(LiveClientError) as err:
            client.submit_pipelined(
                [("set", (f"k{i}", i), 64) for i in range(3)],
                window=2,
                deadline=0.7,
            )
        assert time.monotonic() - started < 5.0
        message = str(err.value)
        assert "0/3 acknowledged" in message
        assert "deadline 0.7s" in message
        assert "window 2" in message
        assert "unacknowledged op indices: [0, 1, 2]" in message

    def test_stall_error_truncates_long_index_lists(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        client = LiveClient(
            "c", {"n1": ("127.0.0.1", dead_port)}, request_timeout=0.2
        )
        with pytest.raises(LiveClientError) as err:
            client.submit_pipelined(
                [("set", (f"k{i}", i), 64) for i in range(15)],
                window=4,
                deadline=0.5,
            )
        assert "... (5 more)" in str(err.value)


# ---------------------------------------------------------------------------
# Live wire-level batching end to end
# ---------------------------------------------------------------------------


@pytest.mark.live
@pytest.mark.slow
class TestLiveCoalescedPipeline:
    def test_request_and_reply_batches_round_trip(self, tmp_path):
        """A pipelined run deep enough to force RequestBatch frames out
        and ReplyBatch frames back, against a durable batched cluster;
        every command must be acknowledged exactly once and the state
        must reflect the last write per key."""
        from repro.net.client import PIPELINE_COALESCE
        from repro.net.cluster import LocalCluster

        ops = 3 * PIPELINE_COALESCE + 7  # forces multi-frame bursts + a tail
        with LocalCluster(
            replicas=3,
            seed=9,
            durable=True,
            log_dir=tmp_path,
            batch_delay_ms=2.0,
            batch_max=64,
            window=8,
        ) as cluster:
            cluster.start()
            with LiveClient(
                "c", cluster.addresses, view=cluster.initial,
                request_timeout=2.0,
            ) as client:
                latencies = client.submit_pipelined(
                    [("set", (f"k{i % 5}", i), 64) for i in range(ops)],
                    window=2 * PIPELINE_COALESCE,
                    deadline=60.0,
                )
                assert len(latencies) == ops
                assert all(lat > 0.0 for lat in latencies)
                # Writes applied in submission order: each key holds the
                # last value written to it.
                for k in range(5):
                    last = max(i for i in range(ops) if i % 5 == k)
                    reply = client.submit("get", (f"k{k}",))
                    assert reply.value == last
