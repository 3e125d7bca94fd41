"""Fail-stop on a failed WAL fsync: nothing the failed window produced leaves.

A dispatch window (one inbound chunk or one timer callback) defers every
WAL fsync to its close. When that fsync fails, the window's records may
never reach media, so no frame the window produced may leave the process:

* the transport discards the peer frames queued during the window (the
  corked replies already die with the exception) and drops every send
  after it;
* the WAL writer refuses all further work — after a failed fsync the
  kernel may have dropped the pages and cleared the error, so a retried
  fsync could report success over lost records;
* ``repro serve`` ends with a non-zero exit status.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.consensus.ballot import Ballot
from repro.consensus.interface import InstanceMessage
from repro.consensus.messages import Accept, Accepted
from repro.errors import DurabilityError
from repro.net import codec
from repro.net.cluster import allocate_ports
from repro.net.transport import TcpTransport
from repro.storage import store as store_mod
from repro.storage.records import WalPromise
from repro.storage.store import ReplicaStore
from repro.storage.wal import WalWriter
from repro.types import Command, CommandId, client_id, node_id

N1, N2 = node_id("n1"), node_id("n2")


def vote(slot: int) -> InstanceMessage:
    return InstanceMessage("e0", Accepted(Ballot(1, N1), slot))


@contextlib.contextmanager
def failing_fsync_group():
    """A dispatch group whose close fails the way a WAL fsync can."""
    yield
    raise OSError(errno.EIO, "Input/output error")


class TestTransportWindow:
    def test_no_frame_of_a_failed_window_reaches_the_peer(self):
        asyncio.run(self._failed_window())

    async def _failed_window(self):
        received: list = []
        receiver = TcpTransport({})
        receiver.register(N1, lambda msg: received.append(msg.payload))
        await receiver.start("127.0.0.1", 0)
        address = receiver._server.sockets[0].getsockname()[:2]
        sender = TcpTransport({N1: address})
        try:
            # A window that closes cleanly: its vote leaves.
            with sender.dispatch_window():
                sender.send(N2, N1, vote(0))
            give_up_at = time.monotonic() + 5.0
            while not received:
                assert time.monotonic() < give_up_at, "the control vote never arrived"
                await asyncio.sleep(0.005)
            sender.add_dispatch_group(failing_fsync_group)
            with pytest.raises(OSError):
                with sender.dispatch_window():
                    sender.send(N2, N1, vote(1))
            # Nothing sent after the failure leaves either.
            sender.send(N2, N1, vote(2))
            await asyncio.sleep(0.3)
            assert received == [vote(0)]
            assert isinstance(sender.failure, OSError)
        finally:
            await sender.close()
            await receiver.close()


class TestWalWriter:
    def test_a_failed_fsync_is_never_retried(self, tmp_path, monkeypatch):
        writer = WalWriter(tmp_path / "wal-000001.log")
        record = WalPromise("e0", Ballot(1, N1))
        writer.append(record, defer_sync=True)

        def failing_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(DurabilityError):
            writer.sync_deferred()
        # The disk "recovers": a retry would now report success over the
        # pages the kernel dropped. The writer refuses instead.
        monkeypatch.setattr(os, "fsync", real_fsync)
        with pytest.raises(DurabilityError):
            writer.sync_deferred()
        with pytest.raises(DurabilityError):
            writer.append(record)
        with pytest.raises(DurabilityError):
            writer.sync()
        writer.close()

    def test_a_failed_directory_fsync_after_a_roll_poisons_the_new_segment(
        self, tmp_path, monkeypatch
    ):
        """The roll's directory fsync makes the new segment's entry durable;
        records appended behind an entry that may never reach media are
        refused, and the enclosing window cannot close."""
        store = ReplicaStore(tmp_path / "n1")
        record = WalPromise("e0", Ballot(1, N1))
        store.append(record)

        def failing_fsync_dir(directory):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(store_mod, "fsync_dir", failing_fsync_dir)
        with pytest.raises(DurabilityError):
            with store.group():
                store.checkpoint(
                    exec_epoch=0, executed=0, virtual_index=0, app_state={}
                )
        with pytest.raises(DurabilityError):
            store.append(record)
        store.close()


# ---------------------------------------------------------------------------
# serve: an fsync error ends the process, and the window's vote never leaves
# ---------------------------------------------------------------------------

#: ``repro serve`` whose ``os.fsync`` fails from its Nth call after boot
#: on (argv[1] = N; 0 never fails).
FAILING_SERVE = """
import os, sys
from repro import cli

fail_from = int(sys.argv.pop(1))
real_build, real_fsync = cli.build_replica, os.fsync
calls = 0

def fsync(fd):
    global calls
    calls += 1
    if fail_from and calls >= fail_from:
        print(f"injected: fsync call {calls} fails", flush=True)
        raise OSError(5, "Input/output error")
    return real_fsync(fd)

def build_then_break(args):
    built = real_build(args)
    os.fsync = fsync
    return built

cli.build_replica = build_then_break
sys.exit(cli.main(sys.argv[1:]))
"""


class WireTap:
    """Listen at peer n1's address and decode every frame sent to it."""

    def __init__(self, port: int):
        self.payloads: list = []
        self._server = socket.create_server(("127.0.0.1", port))
        self._server.settimeout(0.05)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def votes(self) -> list:
        return [
            p.inner for p in list(self.payloads)
            if isinstance(p, InstanceMessage) and isinstance(p.inner, Accepted)
        ]

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._server.close()
        assert not self._thread.is_alive()

    def _accept(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._server.accept()
            except TimeoutError:
                continue
            threading.Thread(target=self._read, args=(conn,), daemon=True).start()

    def _read(self, conn: socket.socket) -> None:
        buffer = b""
        with conn:
            while True:
                try:
                    chunk = conn.recv(65536)
                except OSError:
                    return
                if not chunk:
                    return
                buffer += chunk
                while len(buffer) >= 4:
                    length = codec.frame_length(buffer[:4])
                    if len(buffer) - 4 < length:
                        break
                    self.payloads.append(codec.decode_frame_body(buffer[4:4 + length])[2])
                    buffer = buffer[4 + length:]


@pytest.mark.live
class TestServeFailStop:
    @pytest.mark.parametrize("fail_from", [0, 1], ids=["fsync-ok", "fsync-fails"])
    def test_failed_fsync_ends_serve_before_its_vote_leaves(self, tmp_path, fail_from):
        """The replica is follower n2 of {n1, n2}; the test is leader n1.
        One Accept arrives, its ``WalAccept`` is deferred to the window's
        fsync, and the ``Accepted`` vote is queued for n1 inside the same
        window. With the first fsync after boot failing, the vote must
        never reach n1 and ``serve`` must exit non-zero."""
        leader_port, replica_port = allocate_ports(2)
        tap = WireTap(leader_port)
        src = str(Path(repro.__file__).resolve().parents[1])
        log_path = tmp_path / "n2.log"
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(
                [
                    sys.executable, "-c", FAILING_SERVE, str(fail_from), "serve",
                    "--node", "n2",
                    "--peers", f"n1=127.0.0.1:{leader_port},n2=127.0.0.1:{replica_port}",
                    "--initial", "n1,n2", "--data-dir", str(tmp_path / "n2"),
                    "--checkpoint-interval", "0",
                    # n2 must not campaign (its promise would fsync first).
                    "--suspect-timeout", "30000",
                ],
                stdout=log, stderr=subprocess.STDOUT,
                env={**os.environ, "PYTHONPATH": src},
            )
        try:
            give_up_at = time.monotonic() + 15.0
            while True:
                assert proc.poll() is None, log_path.read_text()
                try:
                    leader = socket.create_connection(("127.0.0.1", replica_port))
                    break
                except OSError:
                    assert time.monotonic() < give_up_at, "replica never accepted"
                    time.sleep(0.005)
            accept = Accept(
                Ballot(1, N1), 0, Command(CommandId(client_id("c"), 1), "set", ("k", 1))
            )
            with leader:
                leader.sendall(codec.encode_frame(N1, N2, InstanceMessage("e0", accept)))
                if not fail_from:
                    give_up_at = time.monotonic() + 10.0
                    while not tap.votes():
                        assert time.monotonic() < give_up_at, log_path.read_text()
                        time.sleep(0.01)
                    assert tap.votes() == [Accepted(Ballot(1, N1), 0)]
                    assert proc.poll() is None
                    return
                give_up_at = time.monotonic() + 15.0
                while proc.poll() is None and not tap.votes():
                    assert time.monotonic() < give_up_at, "serve kept running"
                    time.sleep(0.01)
            time.sleep(0.3)  # anything still in flight lands in the tap
            log = log_path.read_text()
            assert "injected: fsync call 1 fails" in log
            assert tap.votes() == [], "the failed window's vote left the process"
            assert proc.wait(timeout=15.0) != 0, log
            assert "stopped:" in log, log
        finally:
            if proc.poll() is None:
                proc.terminate()
                proc.wait(timeout=10.0)
            tap.close()
