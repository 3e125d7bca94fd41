"""Convenience facade: build and drive a reconfigurable replicated service.

:class:`ReplicatedService` wires replicas, spawns joiners, issues
reconfigurations, and creates clients — the API the examples, tests and
benchmark harness all share.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.consensus.multipaxos import MultiPaxosEngine
from repro.core.client import Client, ClientParams, OperationSource, OpRecord
from repro.core.command import ReconfigCommand
from repro.core.reconfig import (
    CommitListener,
    OrderListener,
    ReconfigParams,
    ReconfigurableReplica,
)
from repro.core.runtime import Runtime
from repro.core.statemachine import StateMachine
from repro.errors import ConfigurationError
from repro.metrics.registry import metrics_of
from repro.types import (
    ClientId,
    CommandId,
    Configuration,
    EpochId,
    Membership,
    NodeId,
)


def spawn_replica(
    sim: Runtime,
    node: str,
    app_factory: Callable[[], StateMachine],
    params: ReconfigParams,
    commit_listener: CommitListener | None = None,
    order_listener: OrderListener | None = None,
) -> ReconfigurableReplica:
    """Create a *joining* replica: it waits for an ``EpochAnnounce``.

    Spawn the process before (or at) the moment a reconfiguration adds it,
    so the announce finds a live endpoint.
    """
    return ReconfigurableReplica(
        sim,
        NodeId(node),
        app_factory,
        params,
        initial_config=None,
        commit_listener=commit_listener,
        order_listener=order_listener,
    )


class ReplicatedService:
    """A reconfigurable replicated state machine plus its admin plane."""

    ADMIN = ClientId("admin")

    def __init__(
        self,
        sim: Runtime,
        members: Iterable[str],
        app_factory: Callable[[], StateMachine],
        params: ReconfigParams | None = None,
        commit_listener: CommitListener | None = None,
        order_listener: OrderListener | None = None,
        storage_factory: Callable[[str], Any] | None = None,
    ):
        self.sim = sim
        self.app_factory = app_factory
        if params is None:
            params = ReconfigParams(engine_factory=MultiPaxosEngine.factory())
        self.params = params
        self.commit_listener = commit_listener
        self.order_listener = order_listener
        #: node name -> ReplicaStore; lets deterministic sim tests run the
        #: replicas durably (each node needs its own directory).
        self.storage_factory = storage_factory
        initial = Configuration(0, Membership.from_iter(members))
        if len(initial.members) == 0:
            raise ConfigurationError("service needs at least one member")
        self.initial_config = initial
        self.replicas: dict[NodeId, ReconfigurableReplica] = {}
        for node in initial.members:
            self.replicas[node] = ReconfigurableReplica(
                sim,
                node,
                app_factory,
                params,
                initial_config=initial,
                commit_listener=commit_listener,
                order_listener=order_listener,
                storage=storage_factory(str(node)) if storage_factory else None,
            )
        self._admin_seq = 0
        self._clients: list[Client] = []

    # -- membership operations ---------------------------------------------------

    def add_replica(self, node: str) -> ReconfigurableReplica:
        """Spawn a joining replica process (does not reconfigure by itself)."""
        replica = spawn_replica(
            self.sim,
            node,
            self.app_factory,
            self.params,
            self.commit_listener,
            self.order_listener,
        )
        self.replicas[replica.node] = replica
        return replica

    def add_observer(self, node: str) -> ReconfigurableReplica:
        """Spawn a warm standby that tracks the virtual log without voting.

        The observer bootstraps from the current members and stays caught
        up; a later :meth:`reconfigure` that includes it promotes it with
        no bulk state transfer (its boundary state is already local).
        """
        targets = [NodeId(str(n)) for n in self._current_members()]
        replica = ReconfigurableReplica(
            self.sim,
            NodeId(node),
            self.app_factory,
            self.params,
            initial_config=None,
            commit_listener=self.commit_listener,
            order_listener=self.order_listener,
            observe_from=targets,
        )
        self.replicas[replica.node] = replica
        return replica

    def reconfigure(self, new_members: Iterable[str]) -> CommandId:
        """Submit a reconfiguration to the service; returns its command id.

        The request is handed to every live replica of the newest known
        configuration — redundancy the engines deduplicate — so a single
        crashed contact cannot swallow it.
        """
        membership = Membership.from_iter(new_members)
        if len(membership) == 0:
            raise ConfigurationError("cannot reconfigure to an empty membership")
        for node in membership:
            if node not in self.replicas:
                self.add_replica(str(node))
        self._admin_seq += 1
        cid = CommandId(self.ADMIN, self._admin_seq)
        command = ReconfigCommand(cid, membership)
        targets = self._current_members()
        for node in targets:
            replica = self.replicas.get(node)
            if replica is not None and not replica.crashed:
                replica.request_reconfiguration(command)
        metrics_of(self.sim).counter("service.reconfigure_requests").inc()
        self.sim.trace.emit(
            self.sim.now, "service", "reconfigure", cid=str(cid), to=str(membership)
        )
        return cid

    def reconfigure_at(self, time: float, new_members: Iterable[str]) -> None:
        members = list(new_members)
        self.sim.at(time, lambda: self.reconfigure(members), label="reconfigure")

    def _current_members(self) -> list[NodeId]:
        epoch = self.newest_epoch()
        for replica in self.replicas.values():
            runtime = replica.epoch_runtime(epoch)
            if runtime is not None:
                return runtime.config.members.sorted_nodes()
        return self.initial_config.members.sorted_nodes()

    # -- observation ----------------------------------------------------------------

    def newest_epoch(self) -> EpochId:
        return max(
            (r.newest_epoch for r in self.replicas.values() if not r.crashed),
            default=-1,
        )

    def epoch_settled(self, epoch: EpochId) -> bool:
        """True when some live member of ``epoch`` has executed its start."""
        for replica in self.replicas.values():
            if replica.crashed:
                continue
            runtime = replica.epoch_runtime(epoch)
            if (
                runtime is not None
                and replica.node in runtime.config.members
                and runtime.start_state_ready
            ):
                return True
        return False

    def live_members(self, epoch: EpochId | None = None) -> list[ReconfigurableReplica]:
        epoch = self.newest_epoch() if epoch is None else epoch
        out = []
        for replica in self.replicas.values():
            if replica.crashed:
                continue
            runtime = replica.epoch_runtime(epoch)
            if runtime is not None and replica.node in runtime.config.members:
                out.append(replica)
        return out

    # -- clients -----------------------------------------------------------------------

    def make_client(
        self,
        name: str,
        operations: OperationSource,
        params: ClientParams | None = None,
        on_complete: Callable[[OpRecord], None] | None = None,
    ) -> Client:
        client = Client(
            self.sim,
            ClientId(name),
            self.initial_config.members,
            operations,
            params=params,
            on_complete=on_complete,
        )
        self._clients.append(client)
        return client

    @property
    def clients(self) -> list[Client]:
        return list(self._clients)
