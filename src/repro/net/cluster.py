"""Launch a live cluster as real OS processes on localhost.

:class:`LocalCluster` spawns one ``python -m repro serve`` subprocess per
replica, all sharing a single address book. The book includes a few
**reserved** names beyond the initial members (``n4``, ``n5``, ... for a
3-replica cluster) so that joiners introduced by a later RECONFIGURE are
addressable by every running replica from the start — mirroring the
simulator's convention that processes exist before they join an epoch.

Used by the storm loop (:mod:`repro.net.storm`), ``perf/`` and the
loopback integration tests; each replica's stdout/stderr is captured to
a per-node log file so a failing run can be diagnosed post-mortem.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.net.transport import Address

#: respawns per replica after losing a bind-time port race.
SPAWN_RETRIES = 3


def free_port(host: str = "127.0.0.1") -> int:
    """Ask the OS for a currently-free TCP port (best effort).

    Inherently TOCTOU: the port can be taken between this probe and the
    replica's bind. Callers must treat a bind failure as retryable (see
    :meth:`LocalCluster.wait_ready`); ``allocate_ports`` at least stops
    the *book itself* from racing its own probes.
    """
    return allocate_ports(1, host)[0]


def allocate_ports(count: int, host: str = "127.0.0.1") -> list[int]:
    """Reserve ``count`` distinct free ports, holding every probe socket
    open until all are chosen so consecutive probes cannot race each other
    into the same port. The window between release and the replica's bind
    remains (that race is handled by respawn-on-bind-failure)."""
    probes: list[socket.socket] = []
    try:
        for _ in range(count):
            probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind((host, 0))
            probes.append(probe)
        return [probe.getsockname()[1] for probe in probes]
    finally:
        for probe in probes:
            probe.close()


class LocalCluster:
    """A localhost cluster of ``repro serve`` subprocesses."""

    def __init__(
        self,
        replicas: int = 3,
        *,
        host: str = "127.0.0.1",
        reserve: int = 2,
        app: str = "kv",
        seed: int = 42,
        log_dir: str | Path | None = None,
        python: str = sys.executable,
        verbose: bool = False,
        chaos: bool = False,
        durable: bool = False,
        fsync: bool = False,
        batch_delay_ms: float = 0.0,
        batch_max: int | None = None,
        window: int = 0,
        read_mode: str | None = None,
        lease_ms: float | None = None,
        suspect_ms: float | None = None,
        extra_args: list[str] | None = None,
    ):
        if replicas < 1:
            raise ValueError("need at least one replica")
        self.host = host
        self.app = app
        self.seed = seed
        self.python = python
        self.verbose = verbose
        #: expose the chaos admin endpoint on every replica (fault
        #: injection via repro.net.chaos; off for production-like runs).
        self.chaos = chaos
        #: commit-path tuning forwarded to every replica (see
        #: ``repro serve --batch-delay/--batch-max/--window``; None keeps
        #: the serve default).
        self.batch_delay_ms = batch_delay_ms
        self.batch_max = batch_max
        self.window = window
        #: read-path tuning forwarded to every replica (see ``repro serve
        #: --read-mode/--lease-duration/--suspect-timeout``). None keeps
        #: the serve defaults (ordered reads).
        self.read_mode = read_mode
        self.lease_ms = lease_ms
        self.suspect_ms = suspect_ms
        #: extra ``repro serve`` flags appended to every replica's argv
        #: (e.g. the shard ownership flags a ShardedCluster passes down).
        self.extra_args = list(extra_args or [])
        names = [f"n{i + 1}" for i in range(replicas + reserve)]
        #: members of epoch 0; the rest of the book is reserved for joiners.
        self.initial = names[:replicas]
        ports = allocate_ports(len(names), host)
        self.addresses: dict[str, Address] = {
            name: (host, port) for name, port in zip(names, ports)
        }
        self.procs: dict[str, subprocess.Popen] = {}
        self._respawns: dict[str, int] = {}
        self.log_dir = Path(
            log_dir
            if log_dir is not None
            else tempfile.mkdtemp(prefix="repro-cluster-")
        )
        self.log_dir.mkdir(parents=True, exist_ok=True)
        #: durable mode: every replica gets --data-dir under
        #: ``log_dir/data``, so restart() recovers from checkpoint+WAL
        #: instead of amnesia.
        #: fsync defaults off for the localhost harness: flushed-to-kernel
        #: writes already survive SIGKILL (the failure mode under test);
        #: per-append fsync only adds machine-crash durability and makes
        #: wall-clock-budgeted tests an order of magnitude slower.
        self.durable = durable
        self.fsync = fsync
        self.data_root: Path | None = None
        if durable:
            self.data_root = self.log_dir / "data"
            self.data_root.mkdir(parents=True, exist_ok=True)

    # -- lifecycle ----------------------------------------------------------

    def start(self, wait: bool = True, timeout: float = 15.0) -> None:
        """Spawn every initial member (and optionally wait for readiness)."""
        for name in self.initial:
            self.spawn(name)
        if wait:
            self.wait_ready(self.initial, timeout=timeout)

    def spawn(self, name: str) -> subprocess.Popen:
        """Start (or restart) one replica process.

        Initial members are bootstrapped with ``--initial``; reserved names
        come up empty and wait to be adopted by a reconfiguration.
        """
        if name not in self.addresses:
            raise KeyError(f"{name!r} is not in the cluster address book")
        existing = self.procs.get(name)
        if existing is not None and existing.poll() is None:
            raise RuntimeError(f"replica {name!r} is already running")
        host, port = self.addresses[name]
        argv = [
            self.python, "-m", "repro", "serve",
            "--node", name,
            "--host", host,
            "--port", str(port),
            "--peers", self.peers_arg(),
            "--app", self.app,
            "--seed", str(self.seed),
        ]
        if self.chaos:
            argv += ["--chaos"]
        if self.data_root is not None:
            argv += ["--data-dir", str(self.data_root / name)]
            if not self.fsync:
                argv += ["--no-fsync"]
        if self.batch_delay_ms > 0:
            argv += ["--batch-delay", str(self.batch_delay_ms)]
        if self.batch_max is not None:
            argv += ["--batch-max", str(self.batch_max)]
        if self.window > 0:
            argv += ["--window", str(self.window)]
        if self.read_mode is not None:
            argv += ["--read-mode", self.read_mode]
        if self.lease_ms is not None:
            argv += ["--lease-duration", str(self.lease_ms)]
        if self.suspect_ms is not None:
            argv += ["--suspect-timeout", str(self.suspect_ms)]
        if name in self.initial:
            argv += ["--initial", ",".join(self.initial)]
        if self.verbose:
            argv += ["--verbose"]
        argv += self.extra_args
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        log = open(self.log_dir / f"{name}.log", "ab")
        try:
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        finally:
            log.close()  # the child holds its own descriptor
        self.procs[name] = proc
        return proc

    def wait_ready(
        self, names: list[str] | None = None, timeout: float = 15.0
    ) -> None:
        """Block until every named replica accepts TCP connections."""
        pending = list(names if names is not None else self.procs)
        give_up_at = time.monotonic() + timeout
        while pending:
            name = pending[0]
            proc = self.procs.get(name)
            if proc is not None and proc.poll() is not None:
                # The child exited before accepting. Losing the bind race
                # is expected occasionally — free_port() is TOCTOU, and a
                # restart rebinds a port whose previous owner just died —
                # so respawn on the same address a bounded number of times.
                attempts = self._respawns.get(name, 0)
                if self._bind_failed(name) and attempts < SPAWN_RETRIES:
                    self._respawns[name] = attempts + 1
                    time.sleep(0.1 * (attempts + 1))
                    self.spawn(name)
                    continue
                raise RuntimeError(
                    f"replica {name!r} exited with {proc.returncode}; "
                    f"see {self.log_dir / (name + '.log')}"
                )
            try:
                socket.create_connection(self.addresses[name], timeout=0.25).close()
                pending.pop(0)
                self._respawns.pop(name, None)
            except OSError:
                if time.monotonic() > give_up_at:
                    raise TimeoutError(
                        f"replica {name!r} not accepting connections; "
                        f"see {self.log_dir / (name + '.log')}"
                    ) from None
                # A refused loopback connect costs microseconds: probe
                # often, so a replica counts as ready when it binds, not
                # up to one long sleep later.
                time.sleep(0.005)

    #: substrings identifying a failed TCP bind across platforms
    #: (EADDRINUSE is errno 98 on Linux, 48 on macOS, 10048 on Windows).
    _BIND_ERRORS = ("address already in use", "errno 98", "errno 48", "10048")

    def _bind_failed(self, name: str) -> bool:
        """Did ``name``'s last incarnation die failing to bind its port?"""
        try:
            tail = (self.log_dir / f"{name}.log").read_bytes()[-4096:]
        except OSError:
            return False
        text = tail.decode("utf-8", errors="replace").lower()
        return any(marker in text for marker in self._BIND_ERRORS)

    def kill(self, name: str) -> None:
        """Hard-kill one replica (fail-stop: no goodbye, no flush).

        Always reaps: even a replica that already died on its own is
        ``wait()``-ed, so repeated kill/restart rounds (chaos schedules)
        never accumulate zombie children.
        """
        proc = self.procs.get(name)
        if proc is None:
            return
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)

    def restart(
        self,
        name: str,
        wait: bool = True,
        timeout: float = 15.0,
        amnesia: bool | None = None,
    ) -> None:
        """Bring a killed replica back.

        On a storage-less cluster the respawn has total amnesia (the
        original model); on a durable cluster it recovers from its data
        directory. ``amnesia=True`` forces the amnesiac behaviour even
        when durable by wiping the replica's data directory first — the
        control arm of the amnesiac-vs-recovered comparison (EXPERIMENTS
        T12). ``amnesia=None`` means "whatever the cluster does".

        The replica keeps its address-book port; if the old incarnation's
        socket still lingers, :meth:`wait_ready` retries the spawn rather
        than failing on the first lost bind race.
        """
        self.kill(name)
        if amnesia and self.data_root is not None:
            import shutil

            shutil.rmtree(self.data_root / name, ignore_errors=True)
        self._respawns.pop(name, None)  # fresh retry budget per restart
        self.spawn(name)
        if wait:
            self.wait_ready([name], timeout=timeout)

    def shutdown(self) -> None:
        for name, proc in self.procs.items():
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for name, proc in self.procs.items():
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)

    def reap(self) -> list[str]:
        """Collect exit statuses of every dead child; returns their names."""
        dead = []
        for name, proc in self.procs.items():
            if proc.poll() is not None:
                dead.append(name)
        return dead

    # -- helpers ------------------------------------------------------------

    def peers_arg(self) -> str:
        """The whole address book as a ``--peers`` argument string."""
        return ",".join(
            f"{name}={host}:{port}" for name, (host, port) in self.addresses.items()
        )

    def reserved(self) -> list[str]:
        """Names in the address book that are not initial members."""
        return [n for n in self.addresses if n not in self.initial]

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
