"""Launch a sharded multi-group service as real processes on localhost.

:class:`ShardedCluster` composes one :class:`~repro.net.cluster.LocalCluster`
per group — each group is a full reconfigurable-SMR cluster with its own
virtual log, epoch chain, log directory, and (optionally) data
directory — plus one more for the director: a metadir group of
``repro serve --app metadir`` processes holding the authoritative map
(:mod:`repro.shard.metadir`). Groups are told their initial ownership
through ``repro serve``'s ``--shard-*`` flags, so a replica's state
machine and the director agree on the version-1 map without any startup
handshake.

Elastic operations are methods here because they span layers:

* :meth:`split` / :meth:`move` commit an intent to the director group
  and wait for one of its replicas to run the drain-and-cutover
  (ownership moves *between* groups);
* :meth:`add_replica` / :meth:`remove_replica` run the paper's
  reconfiguration *inside* one group and then publish the group's new
  membership through the director (a new map version), leaving every
  other group untouched — the whole point of sharding the epoch chains.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from repro.net.client import LiveClient
from repro.net.cluster import LocalCluster, allocate_ports
from repro.shard.metadir import ReplicatedShardDirector
from repro.shard.shardmap import (
    GroupInfo,
    ShardError,
    ShardMap,
    format_ranges,
)


class ShardedCluster:
    """N independent reconfigurable-SMR groups behind one shard map.

    ``director_replicas`` is the size of the metadir group (at least
    one process; three survive the death of the replica driving a
    move). It is durable exactly when the data groups are.
    """

    def __init__(
        self,
        groups: int = 3,
        *,
        replicas_per_group: int = 3,
        spare_groups: int = 0,
        host: str = "127.0.0.1",
        seed: int = 42,
        log_dir: str | Path | None = None,
        python: str = sys.executable,
        verbose: bool = False,
        durable: bool = False,
        reserve: int = 2,
        director_replicas: int = 1,
        director_hold_ms: float = 0.0,
        director_takeover_ms: float = 1500.0,
    ):
        if groups < 1:
            raise ShardError("need at least one serving group")
        if spare_groups < 0:
            raise ShardError("spare_groups cannot be negative")
        if director_replicas < 1:
            raise ShardError("need at least one director replica")
        self.seed = seed
        self.verbose = verbose
        self.log_dir = Path(
            log_dir
            if log_dir is not None
            else tempfile.mkdtemp(prefix="repro-shards-")
        )
        self.log_dir.mkdir(parents=True, exist_ok=True)
        total = groups + spare_groups
        self.group_names = [f"g{i + 1}" for i in range(total)]
        self.serving = self.group_names[:groups]
        self.clusters: dict[str, LocalCluster] = {}
        #: live membership per group (tracked across add/remove_replica).
        self.members: dict[str, list[str]] = {}
        for index, name in enumerate(self.group_names):
            cluster = LocalCluster(
                replicas=replicas_per_group,
                host=host,
                app="kv",
                # Distinct seeds keep per-group election jitter decorrelated.
                seed=seed + index,
                log_dir=self.log_dir / name,
                python=python,
                verbose=verbose,
                durable=durable,
                reserve=reserve,
            )
            self.clusters[name] = cluster
            self.members[name] = list(cluster.initial)
        #: the metadir group's processes.
        self.director_cluster = LocalCluster(
            replicas=director_replicas,
            host=host,
            app="metadir",
            seed=seed + 1000,
            log_dir=self.log_dir / "dir",
            python=python,
            verbose=verbose,
            durable=durable,
            reserve=1,
            extra_args=[
                "--metadir-hold", str(director_hold_ms),
                "--metadir-takeover", str(director_takeover_ms),
            ],
        )
        #: the admin handle over the metadir group (set by start()).
        self.director: ReplicatedShardDirector | None = None
        # One probe pass for the whole service. Ports probed cluster by
        # cluster collide (the kernel hands a just-released port out
        # again: about one 8-group book in ten on Linux), and a replica
        # whose port another group's replica owns cannot be respawned out
        # of it; worse, its readiness probe connects to the other one.
        books = [*self.clusters.values(), self.director_cluster]
        ports = iter(
            allocate_ports(sum(len(book.addresses) for book in books), host)
        )
        for book in books:
            book.addresses = {name: (host, next(ports)) for name in book.addresses}
        infos = tuple(
            GroupInfo(
                name,
                tuple(self.members[name]),
                dict(self.clusters[name].addresses),
            )
            for name in self.group_names
        )
        #: the version-1 map; becomes authoritative in the director.
        self.initial_map = ShardMap.initial(infos, serving=self.serving)
        # Every replica of a group boots owning exactly its group's
        # version-1 ranges (spares boot owning nothing).
        for name, cluster in self.clusters.items():
            ranges = self.initial_map.ranges_of(name)
            cluster.extra_args = [
                "--shard-group", name,
                "--shard-ranges", format_ranges(ranges),
                "--shard-version", str(self.initial_map.version),
            ]

    # -- lifecycle ----------------------------------------------------------

    def start(self, wait: bool = True, timeout: float = 30.0) -> None:
        """Spawn every group's replicas and the director's, install the map."""
        give_up_at = time.monotonic() + timeout
        for cluster in self.clusters.values():
            cluster.start(wait=False)
        self.director_cluster.start(wait=False)
        if wait:
            for name, cluster in self.clusters.items():
                remaining = max(1.0, give_up_at - time.monotonic())
                cluster.wait_ready(cluster.initial, timeout=remaining)
        remaining = max(1.0, give_up_at - time.monotonic())
        self.director_cluster.wait_ready(
            self.director_cluster.initial, timeout=remaining
        )
        handle = ReplicatedShardDirector(self.director_addresses())
        handle.init_map(self.initial_map)
        self.director = handle

    def shutdown(self) -> None:
        if self.director is not None:
            self.director.close()
            self.director = None
        self.director_cluster.shutdown()
        for cluster in self.clusters.values():
            cluster.shutdown()

    def __enter__(self) -> "ShardedCluster":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- accessors ----------------------------------------------------------

    @property
    def shard_map(self) -> ShardMap:
        return self._director().shard_map()

    def _director(self) -> ReplicatedShardDirector:
        if self.director is None:
            raise ShardError("cluster not started (no director)")
        return self.director

    def director_addresses(self) -> dict[str, tuple[str, int]]:
        """Address book of the metadir group's founding replicas."""
        return {
            name: self.director_cluster.addresses[name]
            for name in self.director_cluster.initial
        }

    def kill_director(self, name: str) -> None:
        """SIGKILL one metadir replica (the failover tests' hammer)."""
        self.director_cluster.kill(name)

    def client(self, name: str = "shard-cli") -> "ShardClient":
        """A smart client that reads the map through its own director
        handle (closed with the client)."""
        from repro.shard.client import ShardClient

        director = ReplicatedShardDirector(
            self.director_addresses(), name=f"{name}-map"
        )
        try:
            return ShardClient(name, director=director)
        except BaseException:
            director.close()
            raise

    def group_client(self, group: str, name: str = "admin") -> LiveClient:
        """A plain LiveClient pinned to one group (admin/observe use)."""
        cluster = self.clusters[group]
        return LiveClient(
            f"{name}@{group}",
            cluster.addresses,
            view=self.members[group],
        )

    # -- elastic operations -------------------------------------------------

    def split(
        self,
        group: str,
        at: int | None = None,
        target: str | None = None,
        deadline: float = 30.0,
    ) -> ShardMap:
        """Split ``group``'s widest range (``dir_begin`` plans the default
        split point and target)."""
        return self._director().split(
            group, at=at, target=target, deadline=deadline
        )

    def move(
        self, lo: int, hi: int, target: str, deadline: float = 30.0
    ) -> ShardMap:
        return self._director().move(lo, hi, target, deadline=deadline)

    def add_replica(
        self, group: str, name: str | None = None, timeout: float = 30.0
    ) -> str:
        """Grow one group by one replica (the paper's reconfiguration).

        Spawns a reserved standby process, reconfigures the group's
        membership to include it, and publishes the new membership as a
        new map version. Every other group is untouched.
        """
        cluster = self.clusters[group]
        current = self.members[group]
        if name is None:
            candidates = [
                n for n in cluster.reserved()
                if n not in current and n not in cluster.procs
            ]
            if not candidates:
                raise ShardError(f"group {group!r} has no reserved names left")
            name = candidates[0]
        cluster.spawn(name)
        cluster.wait_ready([name], timeout=timeout)
        with self.group_client(group, name="grow") as admin:
            admin.reconfigure(current + [name], deadline=timeout)
        self.members[group] = current + [name]
        return self._publish(group, name)

    def remove_replica(
        self, group: str, name: str | None = None, timeout: float = 30.0
    ) -> str:
        """Shrink one group by one replica (and stop its process)."""
        cluster = self.clusters[group]
        current = self.members[group]
        if len(current) <= 1:
            raise ShardError(f"group {group!r} cannot drop below one replica")
        if name is None:
            name = current[-1]
        if name not in current:
            raise ShardError(f"{name!r} is not a member of {group!r}")
        survivors = [n for n in current if n != name]
        with self.group_client(group, name="shrink") as admin:
            admin.reconfigure(survivors, deadline=timeout)
        self.members[group] = survivors
        cluster.kill(name)
        return self._publish(group, name)

    def _publish(self, group: str, changed: str) -> str:
        """Push the group's new membership into the authoritative map."""
        info = GroupInfo(
            group,
            tuple(self.members[group]),
            dict(self.clusters[group].addresses),
        )
        self._director().publish_group(info)
        return changed
