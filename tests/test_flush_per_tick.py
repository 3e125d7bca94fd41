"""One flush per tick: what a live replica emits while it handles one
inbound chunk — fsyncs, proposals, replies — leaves once, at the chunk's end.

* the WAL group-commit window is wired where ``serve`` builds the store,
  so the appends of one chunk share one fsync (it never opened before:
  ``register_process`` looked for ``process.storage`` three lines before
  the replica assigned it);
* reply frames are corked until the window's fsync, so a quorum of one
  cannot acknowledge a command before it is durable;
* a batching leader holds commands only behind a slot in flight — an idle
  pipeline never waits on the batch timer;
* the consensus package learns what may share a slot from the payload,
  not by importing the layer above it.

The live tests run the replica in this process (``LiveRuntime.run`` on a
thread, one member), built by the same function ``repro serve`` calls.
"""

from __future__ import annotations

import ast
import asyncio
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.consensus
from repro.cli import build_parser, build_replica
from repro.consensus.interface import Batch, StaticSmrHost
from repro.consensus.multipaxos import MultiPaxosEngine, PaxosParams
from repro.net.client import LiveClient
from repro.net.cluster import free_port
from repro.net.observe import fetch_metrics
from repro.net.transport import TcpTransport
from repro.sim.runner import Simulator
from repro.storage.store import ReplicaStore
from repro.types import Command, CommandId, Membership, client_id, node_id


def cmd(seq, client="c"):
    return Command(CommandId(client_id(client), seq), "set", (f"k{seq}", seq))


# ---------------------------------------------------------------------------
# Live, in-process: the group window and the reply cork
# ---------------------------------------------------------------------------


class ServedReplica:
    """One durable member built by ``build_replica`` and run on a thread."""

    def __init__(self, runtime, replica, address):
        self.runtime = runtime
        self.replica = replica
        self.address = address

    def metrics(self):
        """The registry as ``#metrics`` serves it."""
        return fetch_metrics(self.address, "n1").snapshot

    def client(self) -> LiveClient:
        return LiveClient("probe", {"n1": self.address})


@contextmanager
def serve_one(tmp_path, *extra_args):
    port = free_port()
    args = build_parser().parse_args([
        "serve", "--node", "n1", "--peers", f"n1=127.0.0.1:{port}",
        "--initial", "n1", "--data-dir", str(tmp_path / "n1"),
        "--checkpoint-interval", "0", *extra_args,
    ])
    runtime, replica, host, port = build_replica(args)
    # The wiring itself: the transport wraps every inbound chunk in the
    # window of the store this replica writes to.
    assert replica.storage is not None and replica.storage.fsync
    assert replica.storage.group in runtime.network._dispatch_groups
    thread = threading.Thread(
        target=runtime.run, args=(host, port),
        kwargs={"handle_signals": False}, daemon=True,
    )
    thread.start()
    try:
        deadline = time.monotonic() + 10.0
        while not replica.epoch_runtime(0).engine.is_leader:
            assert time.monotonic() < deadline, "no leader within 10 s"
            time.sleep(0.01)
        yield ServedReplica(runtime, replica, (host, port))
    finally:
        runtime.stop()
        thread.join(timeout=10.0)
        replica.storage.close()
    assert not thread.is_alive()


def rises(before, after):
    return lambda name: after.counters[name] - before.counters[name]


class TestGroupWindowIsLive:
    def test_one_frame_of_eight_commands_costs_one_fsync(self, tmp_path):
        with serve_one(tmp_path) as served:
            before = served.metrics()
            with served.client() as client:
                # A window of eight leaves as one RequestBatch frame.
                acked = client.submit_pipelined(
                    [("set", (f"k{i}", i), 64) for i in range(8)], window=8
                )
            after = served.metrics()
        assert len(acked) == 8
        rose = rises(before, after)
        # Serve default: the frame's eight commands share one slot, so one
        # accept, one (lazy) decide and one sync.
        assert rose("paxos.decided") == 1
        assert after.histograms["paxos.batch_size"]["max"] == 8
        assert rose("wal.fsyncs") == 1
        assert rose("wal.appends") == 2
        assert rose("wal.lazy_appends") == 1
        # The eight answers left as one frame.
        assert rose("smr.replies") == 8
        assert rose("smr.reply_frames") == 1

    def test_batch_max_one_is_one_slot_per_command(self, tmp_path):
        with serve_one(tmp_path, "--batch-max", "1") as served:
            before = served.metrics()
            with served.client() as client:
                acked = client.submit_pipelined(
                    [("set", (f"k{i}", i), 64) for i in range(8)], window=8
                )
            after = served.metrics()
        assert len(acked) == 8
        rose = rises(before, after)
        # Eight slots, eight accepts, eight lazy decides - still one sync.
        assert rose("paxos.decided") == 8
        assert after.histograms["paxos.batch_size"]["max"] == 1
        assert rose("wal.fsyncs") == 1
        assert after.histograms["wal.group_commit_size"]["max"] == 8
        assert rose("wal.appends") == 16
        assert rose("wal.lazy_appends") == 8
        assert rose("smr.reply_frames") == 1

    def test_timer_flush_of_three_slots_costs_one_fsync(self, tmp_path):
        """A timer is a tick too: the slots it opens share one fsync."""
        with serve_one(tmp_path, "--batch-max", "1") as served:
            engine = served.replica.epoch_runtime(0).engine
            fired = threading.Event()

            def tick():
                for seq in (1, 2, 3):
                    engine.propose(cmd(seq))
                fired.set()

            before = served.metrics()
            served.runtime._loop.call_soon_threadsafe(
                served.runtime.schedule, 0.0, tick
            )
            assert fired.wait(timeout=10.0)
            after = served.metrics()
        rose = rises(before, after)
        assert rose("paxos.decided") == 3
        assert rose("wal.fsyncs") == 1
        assert after.histograms["wal.group_commit_size"]["max"] == 3


@pytest.fixture
def io_events(monkeypatch):
    """Every WAL append, fsync, socket write and inbound chunk, in order."""
    events: list[tuple[str, object]] = []
    real_fsync = os.fsync
    real_write = asyncio.StreamWriter.write
    real_append = ReplicaStore.append
    real_drain = TcpTransport._drain_chunk

    def logged_fsync(fd):
        events.append(("fsync", fd))
        return real_fsync(fd)

    def logged_write(self, data):
        events.append(("write", len(data)))
        return real_write(self, data)

    def logged_append(self, record, **kwargs):
        events.append(("append", type(record).__name__))
        return real_append(self, record, **kwargs)

    def logged_drain(self, buffer, writer):
        events.append(("chunk", len(buffer)))
        try:
            return real_drain(self, buffer, writer)
        finally:
            events.append(("chunk-end", None))

    monkeypatch.setattr(os, "fsync", logged_fsync)
    monkeypatch.setattr(asyncio.StreamWriter, "write", logged_write)
    monkeypatch.setattr(ReplicaStore, "append", logged_append)
    monkeypatch.setattr(TcpTransport, "_drain_chunk", logged_drain)
    return events


class TestDurableBeforeAcknowledged:
    @staticmethod
    def one_acknowledged_set(tmp_path, events, *serve_args):
        with serve_one(tmp_path, *serve_args) as served:
            del events[:]
            with served.client() as client:
                reply = client.submit("set", ("k", 1))
            kinds = [kind for kind, _ in events]
        assert reply.value == "ok"
        accept = events.index(("append", "WalAccept"))
        assert "fsync" in kinds[accept:], kinds
        fsync = accept + kinds[accept:].index("fsync")
        assert "write" not in kinds[:fsync], kinds
        assert kinds.count("write") == 1
        return kinds, accept

    def test_quorum_of_one_fsyncs_before_the_reply_leaves(self, tmp_path, io_events):
        """A one-member quorum decides inside the window that appended the
        accept; the reply must still wait for that window's fsync. With
        one command per slot that window is the inbound chunk's."""
        kinds, accept = self.one_acknowledged_set(
            tmp_path, io_events, "--batch-max", "1"
        )
        assert "chunk-end" not in kinds[kinds.index("chunk"):accept], kinds

    def test_timer_flushed_slot_fsyncs_before_the_reply_leaves(self, tmp_path, io_events):
        """On the serve default the slot opens from the zero-delay timer,
        after the chunk that carried the command: same order there."""
        kinds, accept = self.one_acknowledged_set(tmp_path, io_events)
        assert "chunk-end" in kinds[kinds.index("chunk"):accept], kinds
        # Accept and (lazy) decide shared the timer's window: one sync.
        assert kinds.count("fsync") == 1


# ---------------------------------------------------------------------------
# Sim: an idle pipeline never holds; a busy one holds for batch_delay at most
# ---------------------------------------------------------------------------


def make_hosts(params, members=("n1", "n2", "n3"), seed=1):
    sim = Simulator(seed=seed)
    membership = Membership.of(*members)
    hosts = {
        n: StaticSmrHost(sim, n, membership, MultiPaxosEngine.factory(params))
        for n in membership
    }
    return sim, hosts


def run_checking_no_idle_hold(sim, engine, until):
    """Run to ``until``; between instants the leader's buffer may be
    non-empty only behind a slot in flight."""
    while True:
        next_time = sim.events.peek_time()
        if next_time is None or next_time > until:
            break
        sim.step()
        following = sim.events.peek_time()
        if following is None or following > sim.now:
            assert not engine._batch or engine.inflight, (
                f"t={sim.now}: {len(engine._batch)} commands held "
                f"with nothing in flight"
            )
    sim.now = max(sim.now, until)


def flatten(decisions):
    flat = []
    for decision in decisions:
        payload = decision.payload
        flat.extend(payload.payloads if isinstance(payload, Batch) else [payload])
    return flat


def assert_decided_once_in_order(host, proposed, batch_max):
    flat = [p for p in flatten(host.decisions) if isinstance(p, Command)]
    assert flat == proposed  # order kept, nothing lost, nothing twice
    for decision in host.decisions:
        if isinstance(decision.payload, Batch):
            assert len(decision.payload) <= batch_max


class TestIdlePipelineNeverHolds:
    DELAY = 0.050

    def test_closed_loop_median_is_below_the_batch_delay(self):
        """8 callers, each proposing its next command when the previous
        one decides: a round costs a round trip, not round trip + delay."""
        sim, hosts = make_hosts(PaxosParams(batch_delay=self.DELAY, batch_max=64))
        leader = hosts[node_id("n1")]
        sim.run(until=0.1)
        assert leader.engine.is_leader
        proposed: list[Command] = []
        started: dict[CommandId, float] = {}
        latencies: list[float] = []
        next_seq = {f"c{i}": 0 for i in range(8)}

        def submit(caller):
            next_seq[caller] += 1
            if next_seq[caller] > 25:
                return
            command = cmd(next_seq[caller], caller)
            proposed.append(command)
            started[command.cid] = sim.now
            leader.propose(command)

        def on_decide(decision):
            for payload in flatten([decision]):
                latencies.append(sim.now - started[payload.cid])
                submit(payload.cid.client)

        leader.set_decision_callback(on_decide)
        for caller in next_seq:
            submit(caller)
        run_checking_no_idle_hold(sim, leader.engine, until=5.0)
        assert len(latencies) == 8 * 25
        latencies.sort()
        assert latencies[len(latencies) // 2] < self.DELAY
        assert_decided_once_in_order(hosts[node_id("n2")], proposed, 64)
        # The instrument agrees: the typical batch waited for nothing.
        waits = sim.metrics.histogram("paxos.batch_wait").summary()
        assert waits["count"] > 0 and waits["p50"] < self.DELAY

    @pytest.mark.parametrize("delay", [0.050, 0.0004])
    def test_busy_pipeline_holds_until_decide_or_delay(self, delay):
        """A command that arrives while a slot is in flight waits for that
        slot's decision or ``batch_delay``, whichever comes first."""
        sim, hosts = make_hosts(PaxosParams(batch_delay=delay, batch_max=64))
        leader = hosts[node_id("n1")]
        engine = leader.engine
        sim.run(until=0.1)
        leader.propose(cmd(1))
        sim.run(until=sim.now)  # the zero-delay flush, nothing else
        assert list(engine.inflight) == [0] and not engine._batch
        arrived = sim.now
        leader.propose(cmd(2))
        released = sim.run_until(lambda: not engine._batch, timeout=1.0)
        assert released
        if delay > 0.004:  # longer than any round trip of the sim's LAN
            assert 0 not in engine.inflight  # slot 0 decided: that freed it
            assert sim.now - arrived < delay
        else:
            assert 0 in engine.inflight  # still undecided: the timer did
            assert sim.now - arrived == pytest.approx(delay)
        sim.run(until=sim.now + 0.5)
        assert_decided_once_in_order(hosts[node_id("n3")], [cmd(1), cmd(2)], 64)

    def test_one_member_burst_decides_in_order(self):
        """A quorum of one decides inside ``_send_accepts`` and re-enters
        ``_flush_batch``; a burst of 3 x batch_max must come out whole."""
        batch_max = 4
        sim, hosts = make_hosts(
            PaxosParams(batch_delay=self.DELAY, batch_max=batch_max),
            members=("n1",),
        )
        solo = hosts[node_id("n1")]
        sim.run(until=0.1)
        assert solo.engine.is_leader
        burst = [cmd(i + 1) for i in range(3 * batch_max)]
        for command in burst:
            solo.propose(command)
        run_checking_no_idle_hold(sim, solo.engine, until=sim.now)
        assert_decided_once_in_order(solo, burst, batch_max)
        # A straggler short of batch_max finds the pipeline idle: it is
        # decided at the instant it arrives, not batch_delay later.
        straggler = cmd(len(burst) + 1)
        solo.propose(straggler)
        run_checking_no_idle_hold(sim, solo.engine, until=sim.now)
        assert_decided_once_in_order(solo, burst + [straggler], batch_max)
        assert [d.slot for d in solo.decisions] == list(range(len(solo.decisions)))

    @settings(max_examples=40, deadline=None)
    @given(
        bursts=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.01),  # gap before it
                st.integers(min_value=1, max_value=12),  # commands in it
            ),
            min_size=1,
            max_size=8,
        ),
        delay=st.sampled_from([0.0002, 0.002, 0.05]),
        batch_max=st.integers(min_value=1, max_value=8),
        window=st.integers(min_value=0, max_value=3),
        members=st.sampled_from([("n1",), ("n1", "n2", "n3")]),
    )
    def test_any_schedule_keeps_the_invariants(
        self, bursts, delay, batch_max, window, members
    ):
        sim, hosts = make_hosts(
            PaxosParams(batch_delay=delay, batch_max=batch_max, window=window),
            members=members,
        )
        leader = hosts[node_id("n1")]
        sim.run(until=0.1)
        assert leader.engine.is_leader
        proposed: list[Command] = []
        for gap, count in bursts:
            run_checking_no_idle_hold(sim, leader.engine, until=sim.now + gap)
            for _ in range(count):
                command = cmd(len(proposed) + 1)
                proposed.append(command)
                leader.propose(command)
        run_checking_no_idle_hold(sim, leader.engine, until=sim.now + 1.0)
        for host in hosts.values():
            assert_decided_once_in_order(host, proposed, batch_max)


# ---------------------------------------------------------------------------
# Layering: the building block knows nothing about reconfiguration
# ---------------------------------------------------------------------------


class TestConsensusLayering:
    def test_no_consensus_module_imports_the_core_package(self):
        package_dir = Path(repro.consensus.__file__).parent
        offenders = []
        for path in sorted(package_dir.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                offenders += [
                    f"{path.name}:{node.lineno}"
                    for name in names
                    if name == "repro.core" or name.startswith("repro.core.")
                ]
        assert offenders == []

    def test_the_payload_says_whether_it_may_share_a_slot(self):
        """The engine asks the payload: a type it has never heard of rides
        alone, in order, because it declares ``batchable = False``."""
        from repro.consensus.interface import Noop
        from repro.core.command import ReconfigCommand

        assert ReconfigCommand.batchable is False and Noop.batchable is False

        @dataclass(frozen=True)
        class Solo:
            batchable: ClassVar[bool] = False
            cid: CommandId

        sim, hosts = make_hosts(PaxosParams(batch_delay=0.005, batch_max=64))
        leader = hosts[node_id("n1")]
        sim.run(until=0.1)
        solo = Solo(CommandId(client_id("admin"), 1))
        burst = [cmd(1), cmd(2), solo, cmd(3), cmd(4)]
        for payload in burst:
            leader.propose(payload)
        sim.run(until=1.0)
        decided = [d.payload for d in hosts[node_id("n2")].decisions]
        assert solo in decided  # bare, in a slot of its own
        assert flatten(hosts[node_id("n2")].decisions) == burst
