"""Regression tests for the timing bugs the chaos runs flushed out.

Two client-side deadline bugs and three cluster-lifecycle races, each pinned
by a test that fails on the pre-fix code:

* :class:`LiveClient` per-attempt budget going to zero/negative at the
  deadline edge (the attempt sent its request and then had no time to
  listen for the reply);
* :func:`repro.net.cluster.free_port` racing its own consecutive probes
  into the same port, and the groups of a ``ShardedCluster`` racing each
  other's;
* a spawned replica losing the (inherent) probe-to-bind race and staying
  dead instead of being respawned;
* killed replicas never being ``wait()``-ed, accumulating zombies over
  kill/restart rounds.

The client tests run against a minimal in-process stub replica (a thread
speaking the frame protocol) — no consensus, no subprocesses — so they
isolate exactly the client-side arithmetic under test.
"""

from __future__ import annotations

import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.client import ClientReply, ClientRequest, ReplyBatch, RequestBatch
from repro.net import codec
from repro.net.client import MIN_ATTEMPT_BUDGET, LiveClient
from repro.net.cluster import LocalCluster, allocate_ports, free_port
from repro.types import NodeId


class StubReplica:
    """A thread that acks every ClientRequest it reads, frame for frame.

    ``reply_delay`` holds each ack briefly so tests can place
    the reply inside or outside a client's listening window. Subclasses
    override :meth:`reply` to answer differently, or not at all.
    """

    def __init__(self, reply_delay: float = 0.0):
        self.reply_delay = reply_delay
        self.server = socket.create_server(("127.0.0.1", 0))
        self.address = self.server.getsockname()[:2]
        self.replied = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def reply(self, command) -> ClientReply | None:
        """The answer to one command; None drops it unanswered."""
        return ClientReply(command.cid, "ok", 0, 0)

    def _serve(self) -> None:
        self.server.settimeout(0.1)
        while not self._stop.is_set():
            try:
                conn, _ = self.server.accept()
            except socket.timeout:
                continue
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn: socket.socket) -> None:
        buffer = b""
        conn.settimeout(0.1)
        with conn:
            while not self._stop.is_set():
                while len(buffer) >= 4:
                    length = codec.frame_length(buffer[:4])
                    if len(buffer) < 4 + length:
                        break
                    body = buffer[4 : 4 + length]
                    buffer = buffer[4 + length :]
                    sender, dest, payload = codec.decode_frame_body(body)
                    if isinstance(payload, ClientRequest):
                        commands = (payload.command,)
                    elif isinstance(payload, RequestBatch):
                        commands = payload.commands
                    else:
                        continue
                    if self.reply_delay > 0:
                        time.sleep(self.reply_delay)
                    acks = tuple(
                        ack for ack in map(self.reply, commands) if ack is not None
                    )
                    if not acks:
                        continue
                    out: ClientReply | ReplyBatch = (
                        acks[0] if len(acks) == 1 else ReplyBatch(acks)
                    )
                    try:
                        conn.sendall(codec.encode_frame(dest, sender, out))
                    except OSError:
                        return
                    self.replied += len(acks)
                try:
                    chunk = conn.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    return
                if not chunk:
                    return
                buffer += chunk

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)
        self.server.close()


@pytest.fixture()
def stub():
    replica = StubReplica(reply_delay=0.001)
    yield replica
    replica.close()


class TestAttemptBudget:
    """The per-attempt budget is clamped to a positive floor.

    Pre-fix, ``min(request_timeout, give_up_at - now)`` reached zero (a
    ``request_timeout=0.0`` edge) or went negative (deadline almost
    spent), so the attempt sent its request and returned immediately
    without listening — the client then burned the whole deadline in a
    send-and-never-listen loop and raised despite a healthy, fast
    replica.
    """

    def test_budget_floor_at_deadline_edge(self):
        client = LiveClient("c", {"n1": ("127.0.0.1", 1)}, request_timeout=1.0)
        # Deadline already passed: still a positive listening budget.
        assert client._attempt_budget(time.monotonic() - 5.0) == MIN_ATTEMPT_BUDGET
        # Plenty of deadline left: the configured per-attempt timeout.
        assert client._attempt_budget(
            time.monotonic() + 60.0
        ) == pytest.approx(1.0, abs=0.01)

    def test_zero_request_timeout_still_hears_fast_replies(self, stub):
        with LiveClient(
            "c", {"n1": stub.address}, view=["n1"], request_timeout=0.0
        ) as client:
            reply = client.submit("set", ("k", 1), deadline=5.0)
        assert reply.value == "ok"

    def test_submit_succeeds_with_nearly_spent_deadline(self, stub):
        # The deadline is shorter than one reply round under the pre-fix
        # arithmetic rounding the budget to ~0; the floor rescues it.
        with LiveClient(
            "c", {"n1": stub.address}, view=["n1"], request_timeout=5.0
        ) as client:
            reply = client.submit("set", ("k", 1), deadline=MIN_ATTEMPT_BUDGET / 2)
        assert reply.value == "ok"

    def test_pipelined_budget_uses_same_floor(self, stub):
        with LiveClient(
            "c", {"n1": stub.address}, view=["n1"], request_timeout=0.0
        ) as client:
            latencies = client.submit_pipelined(
                [("set", (f"k{i}", i), 64) for i in range(5)], deadline=5.0
            )
        assert len(latencies) == 5
        assert all(lat > 0 for lat in latencies)


class TestPortAllocation:
    def test_allocate_ports_are_distinct(self):
        # Pre-fix each probe bound and closed before the next, so two
        # consecutive probes could hand back the same port.
        ports = allocate_ports(32)
        assert len(set(ports)) == 32

    def test_free_port_is_bindable(self):
        port = free_port()
        probe = socket.socket()
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", port))
        probe.close()

    def test_sharded_cluster_probes_its_whole_book_in_one_pass(
        self, monkeypatch, tmp_path
    ):
        # Pre-fix every LocalCluster of a ShardedCluster probed on its
        # own: distinct within a group, but a later group could be handed
        # a port an earlier one had just released (measured on Linux:
        # one 8-group book in ten). Here the kernel at its least helpful,
        # every probe pass starting over at the same port.
        import repro.net.cluster as net_cluster
        import repro.shard.cluster as shard_cluster

        def probe_pass(count, host="127.0.0.1"):
            return list(range(40000, 40000 + count))

        monkeypatch.setattr(net_cluster, "allocate_ports", probe_pass)
        monkeypatch.setattr(
            shard_cluster, "allocate_ports", probe_pass, raising=False
        )
        cluster = shard_cluster.ShardedCluster(
            2, spare_groups=1, director_replicas=3, log_dir=tmp_path
        )
        books = [*cluster.clusters.values(), cluster.director_cluster]
        ports = [port for book in books for _, port in book.addresses.values()]
        assert len(ports) == 3 * 5 + 4
        assert len(set(ports)) == len(ports)
        # The map the director will serve names the same addresses.
        for info in cluster.initial_map.groups:
            assert dict(info.addresses) == cluster.clusters[info.name].addresses


class TestClusterLifecycle:
    def test_kill_reaps_already_dead_child(self, tmp_path):
        cluster = LocalCluster(replicas=1, reserve=0, log_dir=tmp_path)
        # A child that dies on its own (no kill): pre-fix it was never
        # wait()-ed and lingered as a zombie across chaos rounds.
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        cluster.procs["n1"] = proc
        time.sleep(0.2)
        cluster.kill("n1")
        assert proc.returncode is not None
        assert cluster.reap() == ["n1"]

    def test_bind_failure_marker_detection(self, tmp_path):
        cluster = LocalCluster(replicas=1, reserve=0, log_dir=tmp_path)
        log = tmp_path / "n1.log"
        log.write_text("OSError: [Errno 98] Address already in use\n")
        assert cluster._bind_failed("n1")
        log.write_text("ValueError: something unrelated\n")
        assert not cluster._bind_failed("n1")
        assert not cluster._bind_failed("n9")  # no log at all

    def test_spawn_retries_through_lost_bind_race(self, tmp_path):
        # Simulate losing the probe-to-bind race: the replica's assigned
        # port is occupied when it first comes up and is released shortly
        # after. Pre-fix, wait_ready raised on the first dead child.
        cluster = LocalCluster(replicas=1, reserve=0, log_dir=tmp_path)
        host, port = cluster.addresses["n1"]
        # Bound but NOT listening: holds the port (the replica's bind gets
        # EADDRINUSE) while refusing wait_ready's readiness probes — the
        # same shape as a dying previous owner still squatting the port.
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind((host, port))
        raced = threading.Event()

        def release_after_first_loss() -> None:
            # Hold the port until the replica has demonstrably lost the
            # bind race at least once, then free it for the respawn.
            give_up_at = time.monotonic() + 15.0
            while time.monotonic() < give_up_at:
                if cluster._bind_failed("n1"):
                    raced.set()
                    break
                time.sleep(0.02)
            blocker.close()

        releaser = threading.Thread(target=release_after_first_loss, daemon=True)
        releaser.start()
        try:
            cluster.start(timeout=20.0)
            socket.create_connection(cluster.addresses["n1"], timeout=1.0).close()
            assert raced.is_set()  # the race really happened
        finally:
            releaser.join(timeout=20.0)
            try:
                blocker.close()
            except OSError:
                pass
            cluster.shutdown()
