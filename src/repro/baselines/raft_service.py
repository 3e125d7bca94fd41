"""Service facade for the Raft baseline, mirroring ReplicatedService.

The one structural difference from the paper's composition surfaces here:
Raft changes membership one server at a time, so an arbitrary jump (say,
migrating ``{n1,n2,n3}`` to ``{n4,n5,n6}``) is decomposed into a sequence
of add/remove steps, each waiting for the previous one to be applied. The
composition does the same jump in a single reconfiguration — that
difference is part of what the benchmarks measure.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.baselines.raft import RaftReplica
from repro.core.client import Client, ClientParams, OperationSource, OpRecord
from repro.core.command import ReconfigCommand
from repro.core.statemachine import StateMachine
from repro.errors import ConfigurationError, ProtocolError
from repro.sim.runner import Simulator
from repro.types import ClientId, CommandId, Membership, NodeId, Time


class RaftService:
    """A Raft cluster plus the admin plane that drives membership changes."""

    ADMIN = ClientId("admin")

    def __init__(
        self,
        sim: Simulator,
        members: Iterable[str],
        app_factory: Callable[[], StateMachine],
        commit_listener=None,
    ):
        self.sim = sim
        self.app_factory = app_factory
        self.commit_listener = commit_listener
        membership = Membership.from_iter(members)
        if len(membership) == 0:
            raise ConfigurationError("raft cluster needs at least one member")
        self.initial_members = membership
        self.replicas: dict[NodeId, RaftReplica] = {}
        for node in membership:
            self.replicas[node] = RaftReplica(
                sim,
                node,
                app_factory,
                initial_config=membership,
                commit_listener=commit_listener,
            )
        self._admin_seq = 0
        self._clients: list[Client] = []
        self._targets: list[Membership] = []
        self._driving = False
        self._current_step: tuple[CommandId, Membership] | None = None

    # -- membership ----------------------------------------------------------

    def add_replica(self, node: str) -> RaftReplica:
        """Spawn a fresh (empty) server; it joins once a config adds it."""
        replica = RaftReplica(
            self.sim,
            NodeId(node),
            self.app_factory,
            initial_config=None,
            commit_listener=self.commit_listener,
        )
        self.replicas[replica.node] = replica
        return replica

    def _current_config(self) -> Membership:
        leader = self.leader()
        if leader is not None:
            return leader.config
        for replica in self.replicas.values():
            if not replica.crashed and len(replica.config) > 0:
                return replica.config
        return self.initial_members

    def reconfigure(self, new_members: Iterable[str]) -> None:
        """Drive the membership to ``new_members`` via single-server steps.

        Targets are queued and served strictly one at a time; each single
        step is recomputed against the *live* configuration immediately
        before submission, so overlapping reconfigure calls (storms) and
        leader changes mid-sequence cannot desynchronise the decomposition.
        """
        target = Membership.from_iter(new_members)
        if len(target) == 0:
            raise ConfigurationError("cannot reconfigure to an empty membership")
        for node in target:
            if node not in self.replicas:
                self.add_replica(str(node))
        self._targets.append(target)
        if not self._driving:
            self._driving = True
            self._drive_tick()

    def reconfigure_at(self, time: Time, new_members: Iterable[str]) -> None:
        members = list(new_members)
        self.sim.at(time, lambda: self.reconfigure(members), label="raft-reconfigure")

    def _next_step(self, target: Membership) -> Membership | None:
        """One single-server step from the live config toward ``target``."""
        current = set(self._current_config().nodes)
        goal = set(target.nodes)
        additions = sorted(goal - current)
        if additions:
            return Membership(frozenset(current | {additions[0]}))
        removals = sorted(current - goal)
        if removals:
            return Membership(frozenset(current - {removals[0]}))
        return None  # already there

    def _drive_tick(self) -> None:
        if not self._targets:
            self._driving = False
            return
        target = self._targets[0]

        step = self._current_step
        if step is not None:
            cid, membership = step
            applied = any(
                not r.crashed and cid in r._replies for r in self.replicas.values()
            ) or self._current_config() == membership
            if applied:
                self._current_step = None
            else:
                leader = self.leader()
                if leader is not None:
                    try:
                        leader.request_reconfiguration(ReconfigCommand(cid, membership))
                    except ProtocolError:
                        # Config drifted under us (competing target applied
                        # first); abandon this step and recompute.
                        self._current_step = None
                self._schedule_drive()
                return

        next_membership = self._next_step(target)
        if next_membership is None:
            self._targets.pop(0)
            self._schedule_drive()
            return
        self._admin_seq += 1
        cid = CommandId(self.ADMIN, self._admin_seq)
        self._current_step = (cid, next_membership)
        leader = self.leader()
        if leader is not None:
            try:
                leader.request_reconfiguration(ReconfigCommand(cid, next_membership))
            except ProtocolError:
                self._current_step = None
        self._schedule_drive()

    def _schedule_drive(self) -> None:
        self.sim.schedule(0.05, self._drive_tick, label="raft-reconfig-step")

    # -- observation ---------------------------------------------------------------

    def leader(self) -> RaftReplica | None:
        leaders = [
            r
            for r in self.replicas.values()
            if not r.crashed and r.role == "leader" and r.node in r.config
        ]
        if not leaders:
            return None
        return max(leaders, key=lambda r: r.current_term)

    def applied_membership(self) -> Membership:
        leader = self.leader()
        if leader is not None:
            return leader.applied_config
        return self._current_config()

    # -- clients ----------------------------------------------------------------------

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
            self.initial_members,
            operations,
            params=params,
            on_complete=on_complete,
        )
        self._clients.append(client)
        return client

    @property
    def clients(self) -> list[Client]:
        return list(self._clients)
