"""Replay oracle: acknowledged replies must match a log replay.

The linearizability checker validates the service from the clients' side;
the structural invariants validate replicas against each other. This
oracle closes the remaining gap — it validates the *link* between the two:
replaying a replica's committed virtual log through a fresh state machine
must reproduce, at the right position, exactly the reply value every
client was given. A bug that computed a wrong reply but logged the right
command (or vice versa) is invisible to the other oracles and loud here.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.client import Client
from repro.core.command import ReconfigCommand
from repro.core.reconfig import ReconfigurableReplica
from repro.core.statemachine import DedupStateMachine, StateMachine
from repro.errors import VerificationError
from repro.types import Command, CommandId


def replay_committed(
    replica: ReconfigurableReplica,
    app_factory: Callable[[], StateMachine],
) -> dict[CommandId, object]:
    """Replay a replica's committed entries; returns cid -> replay value.

    Only meaningful for replicas that executed from the beginning of the
    virtual log (founding members that never jumped); replicas that joined
    mid-log raise, since their prefix is inside a snapshot.
    """
    if replica.committed and replica.committed[0][2] != 0:
        raise VerificationError(
            f"{replica.node} joined mid-log; replay needs a founding replica"
        )
    state = DedupStateMachine(app_factory())
    values: dict[CommandId, object] = {}
    for payload, _epoch, _vindex in replica.committed:
        if isinstance(payload, Command):
            values[payload.cid] = state.apply(payload)
        elif isinstance(payload, ReconfigCommand):
            values.setdefault(payload.cid, None)
    return values


def check_replay_matches_acks(
    replica: ReconfigurableReplica,
    clients: Iterable[Client],
    app_factory: Callable[[], StateMachine],
    lease_mode: bool = False,
) -> int:
    """Verify every acknowledged reply against the replay; returns count.

    With ``lease_mode`` on, reads may legitimately be absent from the log
    (served locally at the leaseholder) or have been answered at a
    different serialization point than a logged duplicate — they are
    skipped, and their correctness is the linearizability checker's job.
    A *write* missing from the log is always a violation: an acknowledged
    effect that never happened.
    """
    replayed = replay_committed(replica, app_factory)
    read_only_ops = app_factory().READ_ONLY_OPS
    checked = 0
    for client in clients:
        for record in client.records:
            cid = record.cid
            is_read = record.op in read_only_ops
            if cid not in replayed:
                if is_read and lease_mode:
                    continue  # served off-log by a leaseholder
                raise VerificationError(
                    f"acknowledged {record.op} {cid} never appears in the "
                    f"committed log of {replica.node}"
                )
            if is_read and lease_mode:
                continue  # ack may predate the logged duplicate
            checked += 1
            if replayed[cid] != record.value:
                raise VerificationError(
                    f"reply mismatch for {cid}: client was told "
                    f"{record.value!r}, replay computes {replayed[cid]!r}"
                )
    return checked
