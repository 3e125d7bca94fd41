"""Durable record types written to the WAL and checkpoint files.

Each record is an ordinary dataclass in the wire codec's type table (see
:func:`repro.net.codec.wire_tables`), so the WAL reuses the wire codec's
encoding — one serialisation surface, one set of round-trip tests — and
a WAL written by one replica can be read back by any other build of the
code.

Records are keyed by the engine's *instance id* (the same string used in
:class:`repro.consensus.interface.InstanceMessage`: ``"e<epoch>"`` for a
reconfigurable replica's engines, ``"static"`` for a standalone host), so
the storage layer needs no knowledge of the epoch machinery above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.consensus.ballot import Ballot
from repro.types import Configuration, Membership, Slot


@dataclass(frozen=True, slots=True)
class WalPromise:
    """Acceptor promise: never accept below ``ballot`` in this instance.

    Logged before the :class:`~repro.consensus.messages.Promise` reply is
    sent — the durable-before-send rule that makes a recovered acceptor
    honest about its past.
    """

    instance: str
    ballot: Ballot


@dataclass(frozen=True, slots=True)
class WalAccept:
    """Acceptor vote: ``value`` accepted at ``ballot`` for ``slot``.

    Also implies a promise at ``ballot`` (the acceptor raises its promise
    when voting), so recovery folds accepted ballots into the promised
    watermark without a separate record.
    """

    instance: str
    slot: Slot
    ballot: Ballot
    value: Any


@dataclass(frozen=True, slots=True)
class WalDecide:
    """Learner knowledge: ``slot`` decided as ``value`` in this instance."""

    instance: str
    slot: Slot
    value: Any


@dataclass(frozen=True, slots=True)
class WalEpochOpen:
    """The replica learned of (and joined) an epoch's configuration.

    ``prev_members`` names the boundary-snapshot sources (None for the
    genesis epoch): a replica recovering into an epoch whose boundary it
    never checkpointed re-fetches the snapshot from them, exactly like a
    cold joiner would.
    """

    config: Configuration
    prev_members: Membership | None = None


@dataclass(frozen=True, slots=True)
class WalDirtyOverlap:
    """The undecided tail a member carried across a seal.

    Written at the instant ``epoch`` seals (by every member: the name is
    historical, from when the overlap was the "dirty" hand-off mode), and
    *before* the tail is re-proposed into ``epoch + 1`` (durable before
    send). The re-proposals themselves are plain engine traffic with no
    durable trace until accepted somewhere — so a replica SIGKILLed
    between the seal and the accepts would otherwise silently drop the
    tail it had just promised to carry. Recovery replays the record
    through the same re-propose path; apply-time dedup makes a replay of
    an already-decided payload a no-op.
    """

    epoch: int
    payloads: tuple[Any, ...]


@dataclass(frozen=True, slots=True)
class CheckpointRecord:
    """One durable state-machine checkpoint.

    ``app_state`` reuses the ``state_transfer`` snapshot encoding (the
    :class:`~repro.core.statemachine.DedupStateMachine` snapshot, dedup
    table included, so exactly-once semantics survive recovery);
    ``executed`` counts the effective entries of ``exec_epoch`` already
    applied to it. A checkpoint taken at an epoch boundary has
    ``executed == 0`` and ``app_state`` equal to the boundary snapshot.
    """

    seq: int
    exec_epoch: int
    executed: int
    virtual_index: int
    app_state: Any
