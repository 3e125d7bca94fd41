"""Exactly-once for clients with many commands in flight.

``DedupStateMachine`` keeps one ``(last_seq, reply)`` per client identity
and answers a lower seq ``None`` without applying it, so it is only sound
for clients with at most one command in flight per identity. A client that
pipelined one identity could have a command overtaken by a newer seq (a
resend after an election, or two contacts forwarding at different speeds)
and be acknowledged for a write that never happened. Every client keeps
the rule by giving each command in flight a lane identity of its own:

* the sim's open-loop :class:`Client` - no acknowledged write goes missing,
  with or without a leader crash (before lanes: ~100-260 per run);
* :meth:`LiveClient.submit_pipelined` against a stub replica applying
  through a real dedup table, with the first transmission of op 0 lost;
* the same client against a durable live cluster whose leader is
  SIGKILLed mid-window (live-marked);
* the ``check_client_order`` invariant that every sim suite running
  ``run_all_invariants`` now applies, with its positive control;
* a retry whose reply is lost across a range move (``shard_retire`` ->
  ``shard_install``) is answered from the source group's dedup table and
  applies once.
"""

from __future__ import annotations

import itertools
import threading
import time
from types import SimpleNamespace

import pytest

from repro.apps.kvstore import KvStateMachine
from repro.apps.shardkv import ShardedKvStateMachine
from repro.core.client import Client, ClientParams, ClientReply
from repro.core.service import ReplicatedService
from repro.core.statemachine import DedupStateMachine
from repro.errors import VerificationError
from repro.net.chaos import HistoryRecorder
from repro.net.client import LiveClient
from repro.net.cluster import LocalCluster
from repro.shard.messages import WrongShard
from repro.shard.metadir import intent_client
from repro.shard.shardmap import key_point
from repro.sim.runner import Simulator
from repro.types import ClientId, Command, CommandId, node_id
from repro.verify.histories import History, Operation
from repro.verify.invariants import check_client_order, run_all_invariants
from repro.verify.linearizability import check_kv_linearizable
from repro.verify.suite import verify_run
from repro.workload.generators import KvOperationMix
from tests.conftest import stop_at
from tests.test_net_regressions import StubReplica


def cmd(client: str, seq: int, op: str, *args) -> Command:
    return Command(CommandId(ClientId(client), seq), op, args)


# ---------------------------------------------------------------------------
# Sim: the open-loop client
# ---------------------------------------------------------------------------


class TestOpenLoopLanes:
    @pytest.mark.parametrize("crash_leader", [False, True], ids=["steady", "leader-crash"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_acknowledged_write_is_applied(self, seed, crash_leader):
        sim = Simulator(seed=seed)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        keys = itertools.count()

        def unique_sets():
            i = next(keys)
            return ("set", (f"k{i}", i), 64)

        client = Client(
            sim, ClientId("ol"), service.initial_config.members,
            stop_at(sim, 0.3 + 2.5, unique_sets),
            ClientParams(rate=300.0, start_delay=0.3, lanes=64),
        )
        sim.run(until=1.2)
        if crash_leader:
            leader = service.replicas[node_id("n1")]
            assert leader.epoch_runtime(0).engine.is_leader
            leader.crash()
        sim.run(until=6.0)

        assert client.outstanding == 0 and len(client.records) > 600
        live = [r for r in service.replicas.values() if not r.crashed]
        logged = {
            p.cid: p for r in live for p, _, _ in r.committed
            if isinstance(p, Command)
        }
        for replica in live:
            data = replica.state.inner.snapshot()
            for record in client.records:
                assert record.value == "ok", record
                key, value = logged[record.cid].args
                assert data.get(key) == value, record
            # Each command applied once, and no retry reached the log late.
            assert replica.state.duplicates_suppressed == 0
        run_all_invariants(service.replicas.values())
        # Lanes, not one identity: never more than max_outstanding of them.
        lanes = {record.cid.client for record in client.records}
        assert 1 < len(lanes) <= 64
        # A crash costs a command one request timeout (0.5 s), not two: a
        # ReplyBatch answering several lanes is read, not dropped.
        assert max(r.returned_at - r.invoked_at for r in client.records) < 0.75

    def test_many_lanes_go_through_the_one_gate(self):
        # 64 lanes over 16 keys through a leader crash, stopped while the
        # retries are in flight: every outstanding lane is a pending
        # operation for Wing-Gong, and the replay oracle and
        # check_client_order read the lanes' records.
        sim = Simulator(seed=1)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        mix = KvOperationMix(sim.rng.fork("lanes"), keyspace=16, read_ratio=0.4)
        client = Client(
            sim, ClientId("ol"), service.initial_config.members,
            mix.source("ol", None),
            ClientParams(rate=300.0, start_delay=0.3, lanes=64),
        )
        sim.run(until=1.2)
        service.replicas[node_id("n1")].crash()
        sim.run(until=1.8)  # the lanes that waited on n1 are being retried

        report = verify_run(service.replicas.values(), [client])
        assert report.pending_operations == client.outstanding > 0
        assert report.operations == len(client.records) + client.outstanding > 300
        assert report.replayed > 0
        assert len({record.cid.client for record in client.records}) > 1


# ---------------------------------------------------------------------------
# Stub replica: a retransmission behind newer commands
# ---------------------------------------------------------------------------


class DedupStub(StubReplica):
    """Applies through a real dedup table; loses op 0's first frame."""

    def __init__(self):
        self.machine = DedupStateMachine(KvStateMachine())
        self.values: list[object] = []
        self.dropped = False
        self.lock = threading.Lock()
        super().__init__()

    def reply(self, command):
        with self.lock:
            if command.args[0] == "k0" and not self.dropped:
                self.dropped = True
                return None
            value = self.machine.apply(command)
            self.values.append(value)
        return ClientReply(command.cid, value, 0, 0)


class TestPipelinedLanes:
    def test_a_retransmission_behind_newer_commands_is_applied(self):
        # One identity for the window: ops 1-3 apply as seqs 2-4, op 0's
        # resend arrives as seq 1 < 4 and is answered None, unapplied.
        stub = DedupStub()
        try:
            with LiveClient(
                "c", {"n1": stub.address}, view=["n1"], request_timeout=0.2
            ) as client:
                latencies = client.submit_pipelined(
                    [("set", (f"k{i}", i), 64) for i in range(4)],
                    window=4, deadline=10.0,
                )
        finally:
            stub.close()
        assert stub.dropped and len(latencies) == 4
        assert stub.values == ["ok"] * 4
        assert stub.machine.inner.snapshot() == {f"k{i}": i for i in range(4)}
        assert stub.machine.duplicates_suppressed == 0

    def test_lanes_keep_their_seqs_across_calls(self):
        stub = StubReplica()
        try:
            with LiveClient("c", {"n1": stub.address}, view=["n1"]) as client:
                client.submit_pipelined([("set", ("a", 1), 64)] * 3, window=2)
                client.submit_pipelined([("set", ("a", 2), 64)] * 2, window=2)
                client.submit("get", ("a",))
                seqs = dict(client.core.seqs)
        finally:
            stub.close()
        assert set(seqs) == {ClientId("c/0"), ClientId("c/1"), ClientId("c")}
        assert sum(seqs[ClientId(f"c/{k}")] for k in range(2)) == 5
        assert client.seq == 1  # submit stays on the client's own identity


# ---------------------------------------------------------------------------
# Oracle: first executions come in seq order per client
# ---------------------------------------------------------------------------


def forged(*commands):
    """A replica stand-in whose log holds ``commands`` at vindex 0.."""
    return SimpleNamespace(
        node="f1", committed=[(c, 0, i) for i, c in enumerate(commands)]
    )


class TestClientOrderOracle:
    def test_late_duplicates_pass(self):
        log = forged(cmd("c", 1, "set", "a", 1), cmd("c", 2, "set", "b", 2),
                     cmd("c", 1, "set", "a", 1))
        assert check_client_order([log]) == 2

    def test_out_of_order_first_execution_is_rejected(self):
        log = forged(cmd("c", 2, "set", "b", 2), cmd("c", 1, "set", "a", 1))
        with pytest.raises(VerificationError, match="c:1 first executed"):
            check_client_order([log])

    def test_a_joiner_slice_is_read_against_the_merged_log(self):
        early, late = cmd("c", 1, "set", "a", 1), cmd("c", 2, "set", "b", 2)
        member = forged(early, late, early)
        # The joiner adopted the boundary after index 0: alone it would
        # see seq 2 then a "first" seq 1.
        joiner = SimpleNamespace(node="j", committed=member.committed[1:])
        assert check_client_order([member, joiner]) == 2


# ---------------------------------------------------------------------------
# A lost reply across a range move (ROADMAP item 1 (ii))
# ---------------------------------------------------------------------------


class TestRetryAcrossRangeMove:
    @pytest.mark.parametrize(
        "op, args",
        [("delete", ("k",)), ("cas", ("k", "v1", "v2"))],
        ids=["delete", "cas"],
    )
    def test_a_lost_reply_is_answered_by_the_source_and_applies_once(
        self, op, args
    ):
        """Dedup tables are per group and a move carries items, not dedup
        entries. A retry keeps its CommandId and so its group: it lands on
        the *source*, whose table answers with the original reply before
        the shard layer could say WrongShard. The client never re-routes
        an op that applied, so it cannot apply at the target too (a second
        delete would erase a later write there; a second cas would report
        ``False`` for the swap it made)."""
        point = key_point("k")
        g1 = DedupStateMachine(ShardedKvStateMachine("g1"))
        g2 = DedupStateMachine(ShardedKvStateMachine("g2", owned=()))
        g1.apply(cmd("c@g1", 1, "set", "k", "v1"))
        lost = cmd("c@g1", 2, op, *args)
        assert g1.apply(lost) is True  # applied; the reply never arrives
        capture = g1.apply(cmd(intent_client(1, "r"), 1, "shard_retire",
                               point, point + 1, 2, "g2"))
        g2.apply(cmd(intent_client(1, "i"), 1, "shard_install",
                     point, point + 1, 2, capture["items"]))
        assert g2.apply(cmd("d@g2", 1, "set", "k", "later")) == "ok"
        assert g1.apply(lost) is True  # the retry: same CommandId
        assert g1.duplicates_suppressed == 1
        # A fresh command on the retired range bounces and changes nothing.
        assert isinstance(g1.apply(cmd("c@g1", 3, op, *args)), WrongShard)
        assert g2.inner.inner.snapshot() == {"k": "later"}


# ---------------------------------------------------------------------------
# Live: a pipelined window through a leader SIGKILL
# ---------------------------------------------------------------------------


@pytest.mark.live
@pytest.mark.slow
class TestLivePipelinedLeaderKill:
    def test_every_acknowledged_write_reads_back(self, tmp_path):
        ops = [("set", (f"k{i}", i), 64) for i in range(600)]
        with LocalCluster(
            replicas=3, seed=27, durable=True, log_dir=tmp_path / "logs",
        ) as cluster:
            cluster.start()
            leader = cluster.initial[0]  # the lowest member campaigns first
            with LiveClient(
                "pipe", cluster.addresses, view=cluster.initial,
                request_timeout=0.5,
            ) as client:
                assert client.submit("set", ("warm", 0)).value == "ok"
                killed_at: list[float] = []

                def kill_mid_window() -> None:
                    # A copy is taken in one step; the loop adds lanes.
                    while sum(dict(client.core.seqs).values()) < 200:
                        time.sleep(0.001)
                    cluster.kill(leader)
                    killed_at.append(time.monotonic())

                killer = threading.Thread(target=kill_mid_window, daemon=True)
                t0 = time.monotonic()
                killer.start()
                client.submit_pipelined(ops, window=8, deadline=30.0)
                finished = time.monotonic()
                killer.join(timeout=10.0)
                assert killed_at and killed_at[0] < finished
                recorder = HistoryRecorder(client, t0=t0)
                for _, (key, value), _ in ops:
                    assert recorder.submit("get", (key,)).value == value
        writes = [
            Operation(CommandId(ClientId("pipe-w"), i + 1), "set", args,
                      0.0, finished - t0, "ok")
            for i, (_, args, _) in enumerate(ops)
        ]
        result = check_kv_linearizable(History(writes + recorder.operations))
        assert result.ok, result
