"""One-call verification: run the full oracle stack over a finished run.

Downstream users should not need to know which checks exist; after a
simulation they call :func:`verify_run` and get either a
:class:`VerificationReport` or a :class:`repro.errors.VerificationError`
explaining exactly what broke: Wing-Gong linearizability over the client
history, the structural invariants, the log replay against every
acknowledged reply, and - given the run's fault plan - liveness and
convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.client import Client
from repro.core.reconfig import ReconfigurableReplica
from repro.verify.histories import History
from repro.verify.invariants import (
    check_convergence,
    check_liveness,
    run_all_invariants,
)
from repro.verify.linearizability import check_kv_linearizable
from repro.verify.replay import check_replay_matches_acks


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """What was checked and how much of it there was."""

    operations: int
    pending_operations: int
    kv_keys_checked: int
    positions: int
    epochs: int
    replies: int
    #: acknowledged replies checked against a log replay, summed over the
    #: replayed replicas (0 when no founding member was replayable).
    replayed: int = 0
    #: longest stretch without a completion while the plan left a quorum
    #: up and connected (0.0 when no plan was given).
    stalled_s: float = 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"verified: {self.operations} ops ({self.pending_operations} pending), "
            f"{self.kv_keys_checked} keys linearizable, {self.positions} log "
            f"positions, {self.epochs} epochs, {self.replies} replies consistent, "
            f"{self.replayed} acks replayed"
        )


def verify_run(
    replicas: Iterable[ReconfigurableReplica],
    clients: Iterable[Client],
    check_linearizability: bool = True,
    *,
    plan: Any = None,
    window: tuple[float, float] | None = None,
) -> VerificationReport:
    """Run every applicable oracle; raises VerificationError on failure.

    ``check_linearizability`` may be disabled for non-KV applications
    (the other oracles apply to every application). The replay oracle
    runs on every replica that executed from the first log position, is
    still a member at the end and has caught up with the newest position
    anyone executed: a founding member, where one is left. Given the
    run's fault ``plan`` and measured ``window``,
    :func:`~repro.verify.invariants.check_liveness` runs too, bounding a
    stall by two of the clients' retry intervals, and so does
    :func:`~repro.verify.invariants.check_convergence`: the plan's run is
    over, so every replica that is up must have caught up with it.
    """
    replica_list = list(replicas)
    client_list = list(clients)
    history = History.from_clients(client_list)
    keys_checked = 0
    if check_linearizability:
        result = check_kv_linearizable(history, raise_on_failure=True)
        keys_checked = result.checked_keys
    coverage = run_all_invariants(replica_list)
    newest = max((r.committed[-1][2] for r in replica_list if r.committed), default=0)
    replayed = sum(
        check_replay_matches_acks(
            replica, client_list, replica.app_factory,
            lease_mode=replica.params.read_mode != "log",
        )
        for replica in replica_list
        if replica.committed
        and replica.committed[0][2] == 0
        and replica.committed[-1][2] == newest
        and not (replica.crashed or replica.is_retired)
    )
    stalled = 0.0
    if plan is not None:
        retry = max(client.params.request_timeout for client in client_list)
        stalled = check_liveness(history, plan, *window, 2 * retry)
        check_convergence(replica_list)
    return VerificationReport(
        operations=len(history),
        pending_operations=len(history.pending),
        kv_keys_checked=keys_checked,
        positions=coverage["positions"],
        epochs=coverage["epochs"],
        replies=coverage["replies"],
        replayed=replayed,
        stalled_s=stalled,
    )
