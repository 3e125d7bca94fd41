"""Tests for leader-lease local reads: performance path AND safety.

The safety tests are the important ones: lease reads must stay
linearizable through leader crashes and reconfigurations, and must be
refused whenever any of the guard conditions fails.
"""

from repro.apps.kvstore import KvStateMachine
from repro.consensus.multipaxos import MultiPaxosEngine, PaxosParams
from repro.core.client import ClientParams
from repro.core.reconfig import ReconfigParams
from repro.core.service import ReplicatedService
from repro.errors import ConfigurationError
from repro.sim.node import Process
from repro.sim.runner import Simulator
from repro.types import node_id
from repro.verify.histories import History
from repro.verify.linearizability import check_kv_linearizable

import pytest


def lease_service(sim, members=("n1", "n2", "n3")):
    return ReplicatedService(
        sim,
        list(members),
        KvStateMachine,
        params=ReconfigParams(
            engine_factory=MultiPaxosEngine.factory(), read_mode="lease"
        ),
    )


def one_write_client(sim, service, key="k", value=7):
    """A client that commits a single set — enough traffic to initialize
    the replicated state so lease-read probes have something to serve."""
    sent = [False]

    def ops():
        if sent[0]:
            return None
        sent[0] = True
        return ("set", (key, value), 64)

    return service.make_client(
        "writer", ops, ClientParams(start_delay=0.05, request_timeout=0.3)
    )


class Inbox(Process):
    """A registered endpoint that keeps every frame sent to it."""

    def __init__(self, sim, name):
        super().__init__(sim, node_id(name))
        self.frames = []

    def on_message(self, payload, sender):
        self.frames.append(payload)


def mixed_clients(sim, service, count=3, n_ops=60, read_ratio=0.6):
    clients = []
    for i in range(count):
        budget = [n_ops]
        rng = sim.rng.fork(f"lease-c{i}")

        def ops(budget=budget, rng=rng):
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            key = f"k{rng.randint(0, 4)}"
            if rng.random() < read_ratio:
                return ("get", (key,), 32)
            return ("set", (key, budget[0]), 64)

        clients.append(
            service.make_client(
                f"c{i}", ops, ClientParams(start_delay=0.3, request_timeout=0.3)
            )
        )
    return clients


class TestLeaseMechanics:
    def test_leader_acquires_lease_after_heartbeat_acks(self):
        sim = Simulator(seed=91)
        service = lease_service(sim)
        sim.run(until=0.5)
        leader = next(
            r
            for r in service.replicas.values()
            if r.epoch_runtime(0).engine.is_leader
        )
        assert leader.epoch_runtime(0).engine.has_read_lease(sim.now)

    def test_followers_have_no_lease(self):
        sim = Simulator(seed=92)
        service = lease_service(sim)
        sim.run(until=0.5)
        followers = [
            r
            for r in service.replicas.values()
            if not r.epoch_runtime(0).engine.is_leader
        ]
        assert followers
        for follower in followers:
            assert not follower.epoch_runtime(0).engine.has_read_lease(sim.now)

    def test_lease_expires_when_isolated(self):
        sim = Simulator(seed=93)
        service = lease_service(sim)
        sim.run(until=0.5)
        leader = next(
            r
            for r in service.replicas.values()
            if r.epoch_runtime(0).engine.is_leader
        )
        sim.network.partition("iso", [str(leader.node)],
                              [str(n) for n in service.replicas if n != leader.node])
        sim.run(until=sim.now + 0.3)  # > lease_duration with no fresh acks
        assert not leader.epoch_runtime(0).engine.has_read_lease(sim.now)

    def test_params_alone_do_not_validate_lease_bound(self):
        # PaxosParams is a plain dataclass: constructing an invalid
        # combination succeeds. The lease/suspicion bound is enforced at
        # engine construction (MultiPaxosEngine.__init__), because only
        # the engine knows the params will actually drive elections.
        params = PaxosParams(suspect_timeout_min=0.1, lease_duration=0.1)
        assert params.lease_duration == params.suspect_timeout_min

    def test_engine_construction_rejects_lease_at_suspect_timeout(self):
        sim = Simulator(seed=94)
        with pytest.raises(ConfigurationError):
            ReplicatedService(
                sim,
                ["n1"],
                KvStateMachine,
                params=ReconfigParams(
                    engine_factory=MultiPaxosEngine.factory(
                        PaxosParams(suspect_timeout_min=0.1, lease_duration=0.1)
                    )
                ),
            )

    def test_lease_reads_are_served_locally(self):
        sim = Simulator(seed=95)
        service = lease_service(sim)
        clients = mixed_clients(sim, service, count=2, n_ops=40, read_ratio=0.8)
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=20.0)
        assert done
        total_lease_reads = sum(r.lease_reads for r in service.replicas.values())
        assert total_lease_reads > 10

    def test_log_mode_serves_no_lease_reads(self):
        sim = Simulator(seed=96)
        service = ReplicatedService(sim, ["n1", "n2", "n3"], KvStateMachine)
        clients = mixed_clients(sim, service, count=2, n_ops=30)
        sim.run_until(lambda: all(c.finished for c in clients), timeout=20.0)
        assert sum(r.lease_reads for r in service.replicas.values()) == 0


class TestLeaseSafety:
    def test_linearizable_through_reconfiguration(self):
        sim = Simulator(seed=97)
        service = lease_service(sim)
        clients = mixed_clients(sim, service, count=3, n_ops=60)
        service.reconfigure_at(0.6, ["n1", "n2", "n4"])
        service.reconfigure_at(1.0, ["n2", "n4", "n5"])
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=40.0)
        assert done
        history = History.from_clients(clients)
        result = check_kv_linearizable(history)
        assert result.ok, f"lease reads broke linearizability at {result.failing_key}"
        assert sum(r.lease_reads for r in service.replicas.values()) > 0

    def test_linearizable_through_leader_crash(self):
        sim = Simulator(seed=98)
        service = lease_service(sim)
        clients = mixed_clients(sim, service, count=3, n_ops=60)
        sim.at(0.6, service.replicas[node_id("n1")].crash)
        done = sim.run_until(lambda: all(c.finished for c in clients), timeout=40.0)
        assert done
        history = History.from_clients(clients)
        assert check_kv_linearizable(history).ok

    def test_sealed_epoch_refuses_lease_reads(self):
        sim = Simulator(seed=99)
        service = lease_service(sim)
        writer = one_write_client(sim, service)
        sim.run(until=0.5)
        assert writer.finished
        leader = next(
            r
            for r in service.replicas.values()
            if r.epoch_runtime(0).engine.is_leader
        )
        # Seal epoch 0 artificially and verify the guard trips.
        from repro.types import Command, CommandId, client_id

        read = Command(CommandId(client_id("probe"), 1), "get", ("k",), size=32)
        # Positive control: after the 0.5s warmup the leader holds a live
        # lease and every guard passes, so the read MUST be served — a
        # mere "returns a bool" here would let the sealed-epoch assertion
        # below pass vacuously on a path that never serves anything.
        assert leader._serve_local_read(read, node_id("probe-client")) is True
        runtime = leader.epoch_runtime(0)
        runtime.cut_slot = len(runtime.effective)  # pretend sealed
        assert leader._serve_local_read(read, node_id("probe-client")) is False

    def test_lagging_execution_refuses_lease_reads(self):
        sim = Simulator(seed=100)
        service = lease_service(sim)
        writer = one_write_client(sim, service)
        sim.run(until=0.5)
        assert writer.finished
        leader = next(
            r
            for r in service.replicas.values()
            if r.epoch_runtime(0).engine.is_leader
        )
        from repro.types import Command, CommandId, client_id

        read = Command(CommandId(client_id("probe"), 2), "get", ("k",), size=32)
        # Positive control first: a caught-up leaseholder serves.
        assert leader._serve_local_read(read, node_id("probe-client")) is True
        runtime = leader.epoch_runtime(0)
        runtime.effective.append(object())  # fake un-executed entry
        assert leader._serve_local_read(read, node_id("probe-client")) is False

    def test_become_leader_clears_stale_echoes(self):
        # Regression: a node that re-wins leadership must not anchor a
        # lease on heartbeat echoes from its previous term. We seed a
        # follower with fresh-looking echoes (as if left over from a term
        # it once led) and drive _become_leader directly: the echoes must
        # be discarded, leaving the new leader leaseless until its own
        # heartbeats are acknowledged.
        sim = Simulator(seed=101)
        service = lease_service(sim)
        sim.run(until=0.5)
        follower = next(
            r
            for r in service.replicas.values()
            if not r.epoch_runtime(0).engine.is_leader
        )
        engine = follower.epoch_runtime(0).engine
        for peer in engine.peers:
            if peer != follower.node:
                engine._hb_echoes[peer] = sim.now  # stale-term leftovers
        engine._campaigning = True
        engine._become_leader()
        assert engine._hb_echoes == {}
        assert engine.has_read_lease(sim.now) is False

    def test_stopped_engine_reports_no_lease(self):
        # A sealed epoch's engine is eventually stopped and garbage
        # collected from the chain; if anything still holds a reference
        # and asks, the answer must be "no lease" regardless of how
        # fresh the echoes looked when the epoch died.
        sim = Simulator(seed=102)
        service = lease_service(sim)
        sim.run(until=0.5)
        leader = next(
            r
            for r in service.replicas.values()
            if r.epoch_runtime(0).engine.is_leader
        )
        engine = leader.epoch_runtime(0).engine
        assert engine.has_read_lease(sim.now) is True
        engine.stop()
        assert engine.has_read_lease(sim.now) is False

    def test_random_lease_schedules_linearizable(self):
        for seed in (201, 202, 203, 204):
            sim = Simulator(seed=seed)
            service = lease_service(sim)
            clients = mixed_clients(sim, service, count=2, n_ops=40, read_ratio=0.7)
            service.reconfigure_at(0.5 + (seed % 3) * 0.1, ["n1", "n2", "n4"])
            done = sim.run_until(
                lambda: all(c.finished for c in clients), timeout=40.0
            )
            assert done
            history = History.from_clients(clients)
            assert check_kv_linearizable(history).ok, f"seed {seed}"


def scripted_client(service, name, script, start_delay=0.3):
    """A client that executes ``script`` sequentially, then stops."""
    remaining = list(script)

    def ops():
        if not remaining:
            return None
        return remaining.pop(0)

    return service.make_client(
        name, ops, ClientParams(start_delay=start_delay, request_timeout=0.3)
    )


class TestLeasePathIntegration:
    """The lease fast path under PR 7 coalescing, PR 5 durability, and
    the ClientReply ``virtual_index == -1`` sentinel."""

    def test_request_batch_demux_hits_lease_path(self):
        # Coalesced frames must not bypass the per-command admission
        # path: every read in a RequestBatch takes the lease check, and
        # writes in the same frame still reach the log. What the frame is
        # answered with on the spot shares one reply frame.
        from repro.core.client import ClientReply, ReplyBatch, RequestBatch
        from repro.types import Command, CommandId, client_id

        sim = Simulator(seed=103)
        service = lease_service(sim)
        writer = one_write_client(sim, service)
        inbox = Inbox(sim, "probe-client")
        sim.run(until=0.5)
        assert writer.finished
        leader = next(
            r
            for r in service.replicas.values()
            if r.epoch_runtime(0).engine.is_leader
        )
        before = leader.lease_reads
        probe = client_id("probe")
        batch = RequestBatch(
            commands=(
                Command(CommandId(probe, 1), "get", ("k",), size=32),
                Command(CommandId(probe, 2), "get", ("k",), size=32),
                Command(CommandId(probe, 3), "set", ("j", 9), size=64),
            ),
            reply_to=node_id("probe-client"),
        )
        sent = sim.network.stats.by_type
        singles = sent.get("ClientReply", 0)
        assert sent.get("ReplyBatch", 0) == 0
        leader.on_message(batch, node_id("probe-client"))
        assert leader.lease_reads == before + 2
        # Both reads left in one frame, the moment the frame was admitted.
        assert sent.get("ReplyBatch", 0) == 1
        assert sent.get("ClientReply", 0) == singles
        sim.run(until=sim.now + 0.5)  # let the batched write commit
        assert leader.state.inner.snapshot()["j"] == 9
        # ...and the write's acknowledgement followed later, on its own.
        assert sent.get("ClientReply", 0) == singles + 1
        reads, write = inbox.frames
        assert isinstance(reads, ReplyBatch)
        assert [(r.cid.seq, r.value, r.virtual_index) for r in reads.replies] == [
            (1, 7, -1), (2, 7, -1),
        ]
        assert isinstance(write, ClientReply) and write.cid.seq == 3

        # The frame re-sent (a client retry): two fresh lease reads and the
        # cached reply of the executed write, in one ReplyBatch.
        del inbox.frames[:]
        leader.on_message(batch, node_id("probe-client"))
        sim.run(until=sim.now + 0.1)
        (resent,) = inbox.frames
        assert isinstance(resent, ReplyBatch)
        assert [r.cid.seq for r in resent.replies] == [1, 2, 3]
        assert resent.replies[2] == write
        replies = sim.metrics.counter("smr.replies").value
        frames = sim.metrics.counter("smr.reply_frames").value
        assert replies - frames == 3  # 2 + 3 replies rode in 2 frames

    def test_lease_reads_bypass_the_log(self):
        # A lease read must never reach the proposal path: no Paxos slot,
        # no WAL append (in live mode the WAL only sees proposals), no
        # peer traffic. We pin that by construction: propose() untouched
        # and the slot counter frozen across a burst of served reads.
        from repro.types import Command, CommandId, client_id

        sim = Simulator(seed=104)
        service = lease_service(sim)
        writer = one_write_client(sim, service)
        sim.run(until=0.5)
        assert writer.finished
        leader = next(
            r
            for r in service.replicas.values()
            if r.epoch_runtime(0).engine.is_leader
        )
        engine = leader.epoch_runtime(0).engine
        slots_before = engine.next_slot
        calls = []
        original = engine.propose
        engine.propose = lambda *a, **kw: calls.append(a) or original(*a, **kw)
        try:
            for seq in range(1, 6):
                read = Command(
                    CommandId(client_id("probe"), seq), "get", ("k",), size=32
                )
                assert leader._serve_local_read(read, node_id("pc")) is True
        finally:
            engine.propose = original
        assert calls == []
        assert engine.next_slot == slots_before

    def test_lease_reply_carries_sentinel_vindex(self):
        # Lease replies never occupy a virtual log index; the sentinel -1
        # is the wire-visible marker clients and recorders must accept.
        from repro.core.client import ClientReply
        from repro.types import Command, CommandId, client_id

        sim = Simulator(seed=105)
        service = lease_service(sim)
        writer = one_write_client(sim, service, key="k", value=3)
        sim.run(until=0.5)
        assert writer.finished
        leader = next(
            r
            for r in service.replicas.values()
            if r.epoch_runtime(0).engine.is_leader
        )
        captured = []
        leader.send = lambda to, payload: captured.append((to, payload))
        try:
            read = Command(CommandId(client_id("probe"), 1), "get", ("k",), size=32)
            assert leader._serve_local_read(read, node_id("pc")) is True
        finally:
            del leader.send  # restore the bound method
        (to, reply), = captured
        assert to == node_id("pc")
        assert isinstance(reply, ClientReply)
        assert reply.virtual_index == -1
        assert reply.value == 3

    def test_lease_reads_ordered_against_writes_in_history(self):
        # The sentinel must flow through the sim client's recording into
        # History/Wing-Gong without misordering a lease read against the
        # write it must observe: a sequential client's read-after-write
        # pins the real-time edge.
        sim = Simulator(seed=106)
        service = lease_service(sim)
        client = scripted_client(
            service,
            "seq",
            [
                ("set", ("k", 1), 64),
                ("get", ("k",), 32),
                ("set", ("k", 2), 64),
                ("get", ("k",), 32),
            ],
        )
        done = sim.run_until(lambda: client.finished, timeout=20.0)
        assert done
        values = [r.value for r in client.records]
        assert values[1] == 1 and values[3] == 2
        assert sum(r.lease_reads for r in service.replicas.values()) >= 1
        assert check_kv_linearizable(History.from_clients([client])).ok


class TestFollowerReads:
    def follower_service(self, sim, staleness=0.5):
        return ReplicatedService(
            sim,
            ["n1", "n2", "n3"],
            KvStateMachine,
            params=ReconfigParams(
                engine_factory=MultiPaxosEngine.factory(),
                read_mode="follower",
                staleness_bound=staleness,
            ),
        )

    def test_fresh_members_serve_local_reads(self):
        from repro.types import Command, CommandId, client_id

        sim = Simulator(seed=107)
        service = self.follower_service(sim)
        writer = one_write_client(sim, service)
        sim.run(until=0.5)
        assert writer.finished
        for seq, replica in enumerate(service.replicas.values(), start=1):
            read = Command(
                CommandId(client_id("probe"), seq), "get", ("k",), size=32
            )
            assert replica._serve_local_read(read, node_id("pc")) is True
        assert sum(r.follower_reads for r in service.replicas.values()) == 3

    def test_frame_of_reads_is_answered_by_one_frame(self):
        from repro.core.client import ReplyBatch, RequestBatch
        from repro.types import Command, CommandId, client_id

        sim = Simulator(seed=110)
        service = self.follower_service(sim)
        writer = one_write_client(sim, service)
        inbox = Inbox(sim, "pc")
        sim.run(until=0.5)
        assert writer.finished
        follower = next(
            r
            for r in service.replicas.values()
            if not r.epoch_runtime(0).engine.is_leader
        )
        batch = RequestBatch(
            commands=tuple(
                Command(CommandId(client_id("probe"), seq), "get", ("k",), size=32)
                for seq in (1, 2, 3)
            ),
            reply_to=node_id("pc"),
        )
        follower.on_message(batch, node_id("pc"))
        assert follower.follower_reads == 3
        sim.run(until=sim.now + 0.1)
        (frame,) = inbox.frames
        assert isinstance(frame, ReplyBatch)
        assert [(r.cid.seq, r.value) for r in frame.replies] == [(1, 7), (2, 7), (3, 7)]

    def test_stale_follower_refuses_local_reads(self):
        from repro.types import Command, CommandId, client_id

        sim = Simulator(seed=108)
        service = self.follower_service(sim, staleness=0.3)
        writer = one_write_client(sim, service)
        sim.run(until=0.5)
        assert writer.finished
        follower = next(
            r
            for r in service.replicas.values()
            if not r.epoch_runtime(0).engine.is_leader
        )
        others = [str(n) for n in service.replicas if n != follower.node]
        sim.network.partition("iso", [str(follower.node)], others)
        sim.run(until=sim.now + 0.6)  # silence > staleness_bound
        read = Command(CommandId(client_id("probe"), 1), "get", ("k",), size=32)
        assert follower._serve_local_read(read, node_id("pc")) is False
        # The leader of the majority side stays fresh (age 0) and serves.
        leader = next(
            r
            for r in service.replicas.values()
            if r.node != follower.node and r.epoch_runtime(0).engine.is_leader
        )
        assert leader._serve_local_read(read, node_id("pc")) is True


class TestLeaseShardInteraction:
    def test_drained_range_never_serves_stale_lease_read(self):
        # After shard_retire executes, the range's data is gone from the
        # inner store and ownership checks run *inside* apply -- so a
        # lease read for a drained key yields a WrongShard hint, never
        # the pre-retire value. (A retire that is decided but not yet
        # executed is covered by the executed==len(effective) guard --
        # see test_lagging_execution_refuses_lease_reads.)
        from repro.apps.shardkv import ShardedKvStateMachine
        from repro.shard.messages import WrongShard
        from repro.shard.shardmap import key_point
        from repro.types import Command, CommandId, client_id

        sim = Simulator(seed=109)
        service = ReplicatedService(
            sim,
            ["n1", "n2", "n3"],
            ShardedKvStateMachine,
            params=ReconfigParams(
                engine_factory=MultiPaxosEngine.factory(), read_mode="lease"
            ),
        )
        point = key_point("k")
        client = scripted_client(
            service,
            "admin",
            [
                ("set", ("k", 5), 64),
                ("set", ("other", 11), 64),
                ("shard_retire", (point, point + 1, 2, "g-target"), 64),
            ],
        )
        done = sim.run_until(lambda: client.finished, timeout=20.0)
        assert done
        leader = next(
            r
            for r in service.replicas.values()
            if r.epoch_runtime(0).engine.is_leader
        )
        captured = []
        leader.send = lambda to, payload: captured.append(payload)
        try:
            drained = Command(
                CommandId(client_id("probe"), 1), "get", ("k",), size=32
            )
            owned = Command(
                CommandId(client_id("probe"), 2), "get", ("other",), size=32
            )
            assert leader._serve_local_read(drained, node_id("pc")) is True
            assert leader._serve_local_read(owned, node_id("pc")) is True
        finally:
            del leader.send
        hint, value = captured[0].value, captured[1].value
        assert isinstance(hint, WrongShard)
        assert hint.target == "g-target"
        assert value == 11
