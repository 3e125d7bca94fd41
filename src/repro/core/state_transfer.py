"""Boundary-state transfer between configurations.

When a replica joins the service at epoch ``e`` (it is in ``C_e`` but was
not in ``C_{e-1}``) it needs the application state at the epoch boundary —
the state after executing every epoch before ``e``. Members of the
previous configuration compute and cache that boundary snapshot when they
finish executing epoch ``e-1``; the joiner polls them round-robin until one
answers.

Snapshot replies are sized by the application's ``snapshot_bytes``, so the
network's bandwidth model makes large-state transfers take proportionally
longer — the effect experiment T2 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.types import EpochId, NodeId


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


@dataclass(frozen=True, slots=True)
class SnapshotChunkRequest:
    """Ask for one chunk of the boundary snapshot (chunked transfer mode).

    Chunking models wire-level flow control: the snapshot travels as a
    train of fixed-size messages, so a lost message or a crashed source
    costs one chunk, not the whole transfer. Boundary snapshots are
    deterministic — identical at every member of the previous epoch — so
    chunks fetched from *different* sources assemble into the same state
    and a mid-transfer failover simply resumes at the next chunk index.
    """

    epoch: EpochId
    index: int
    chunk_bytes: int


@dataclass(frozen=True, slots=True)
class SnapshotChunkReply:
    """One chunk. Only the final chunk carries the assembled snapshot."""

    epoch: EpochId
    index: int
    total_chunks: int
    #: present on the last chunk only (simulation stands in for real
    #: byte-level reassembly; the wire cost is modelled per chunk).
    snapshot: Any
    snapshot_bytes: int


@dataclass(slots=True)
class TransferTask:
    """One in-progress fetch of a boundary snapshot at a joining replica."""

    epoch: EpochId
    sources: list[NodeId]
    next_source: int = 0
    attempts: int = 0
    done: bool = False
    #: chunked mode progress (next chunk index we still need).
    next_chunk: int = 0
    total_chunks: int | None = None

    def pick_source(self) -> NodeId:
        source = self.sources[self.next_source % len(self.sources)]
        self.next_source += 1
        self.attempts += 1
        return source
