"""Boundary-state transfer between configurations.

When a replica joins the service at epoch ``e`` (it is in ``C_e`` but was
not in ``C_{e-1}``) it needs the application state at the epoch boundary —
the state after executing every epoch before ``e``. Members of the
previous configuration compute and cache that boundary snapshot when they
finish executing epoch ``e-1``; the joiner polls them round-robin until one
answers. The snapshot travels whole, in one :class:`SnapshotReply`.

Snapshot replies are sized by the application's ``snapshot_bytes``, so the
network's bandwidth model makes large-state transfers take proportionally
longer — the effect experiment T2 sweeps.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import ProtocolError
from repro.types import EpochId, Membership, NodeId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.reconfig import ReconfigurableReplica

#: seconds before a joiner asks the next source again.
TRANSFER_RETRY_INTERVAL = 0.05
#: boundary snapshots a replica keeps cached for serving joiners.
SNAPSHOT_CACHE_LIMIT = 8


@dataclass(frozen=True, slots=True)
class SnapshotRequest:
    """Ask for the boundary snapshot at the start of ``epoch``."""

    epoch: EpochId


@dataclass(frozen=True, slots=True)
class SnapshotReply:
    """Boundary snapshot for ``epoch`` (state after all prior epochs)."""

    epoch: EpochId
    snapshot: Any
    snapshot_bytes: int


@dataclass(frozen=True, slots=True)
class SnapshotUnavailable:
    """The asked replica does not (yet) have that boundary snapshot."""

    epoch: EpochId


#: what :meth:`BoundaryTransfer.on_message` handles (the replica dispatches on it).
TRANSFER_MESSAGES = (SnapshotRequest, SnapshotReply, SnapshotUnavailable)


@dataclass(slots=True)
class TransferTask:
    """One in-progress fetch of a boundary snapshot at a joining replica."""

    epoch: EpochId
    sources: list[NodeId]
    next_source: int = 0
    attempts: int = 0

    def pick_source(self) -> NodeId:
        source = self.sources[self.next_source % len(self.sources)]
        self.next_source += 1
        self.attempts += 1
        return source


class BoundaryTransfer:
    """Both ends of boundary transfer for one replica.

    As a source it caches the boundary snapshots its replica produces and
    answers requests for them. As a joiner it fetches one boundary,
    retrying the next source on a timer until the boundary has landed.
    It changes the replica's chain only through
    :meth:`~repro.core.reconfig.ReconfigurableReplica.land_boundary` and
    :meth:`~repro.core.reconfig.ReconfigurableReplica.adopt_boundary`.
    """

    def __init__(self, replica: "ReconfigurableReplica"):
        self.replica = replica
        #: boundary snapshots: epoch -> (snapshot, size); serves joiners.
        self.snapshots: dict[EpochId, tuple[Any, int]] = {}
        self.task: TransferTask | None = None
        #: set by :meth:`start`; nothing may be sent before it (the replica
        #: runs recovery in its constructor, before the transport is up).
        self.started = False

    def cache(self, epoch: EpochId, snapshot: Any, size: int) -> None:
        self.snapshots[epoch] = (snapshot, size)
        while len(self.snapshots) > SNAPSHOT_CACHE_LIMIT:
            del self.snapshots[min(self.snapshots)]

    def begin(self, epoch: EpochId, sources: Membership) -> None:
        """Fetch ``epoch``'s boundary from ``sources`` (minus ourselves)."""
        me = self.replica.node
        others = [n for n in sources.sorted_nodes() if n != me]
        if not others:
            raise ProtocolError(f"no snapshot sources for epoch {epoch}")
        self.task = TransferTask(epoch=epoch, sources=others)
        self.replica.trace("transfer-begin", epoch=epoch, sources=len(others))
        if self.started:
            self._tick()

    def start(self) -> None:
        self.started = True
        if self.task is not None:
            self._tick()  # a transfer that recovery left pending

    def _tick(self) -> None:
        task = self.task
        runtime = self.replica.epoch_runtime(task.epoch)
        if runtime is not None and runtime.start_state_ready:
            return
        self.replica.send(task.pick_source(), SnapshotRequest(task.epoch))
        self.replica.set_timer(TRANSFER_RETRY_INTERVAL, self._tick, label="transfer")

    def on_message(self, payload: Any, sender: NodeId) -> None:
        if isinstance(payload, SnapshotRequest):
            cached = self.snapshots.get(payload.epoch)
            if cached is None:
                self.replica.send(sender, SnapshotUnavailable(payload.epoch))
                return
            snapshot, size = cached
            # Deep copy models serialisation: the receiver must not alias
            # our live state.
            self.replica.send(
                sender,
                SnapshotReply(payload.epoch, deepcopy(snapshot), size),
                size=size + 128,
            )
        elif isinstance(payload, SnapshotReply):
            if self.replica.land_boundary(payload.epoch, payload.snapshot):
                self.replica.trace(
                    "transfer-done", epoch=payload.epoch, bytes=payload.snapshot_bytes
                )
                self.replica.adopt_boundary(payload.epoch)
        # SnapshotUnavailable: the retry timer asks the next source.
