"""Reconfiguration commands.

A reconfiguration is an *ordinary command* proposed to the current static
instance — that is the heart of the composition: no special wedge/stop API
is demanded of the building block. The first ``ReconfigCommand`` decided in
an epoch's log deterministically terminates that epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.types import CommandId, Membership, NodeId


@dataclass(frozen=True, slots=True)
class ReconfigCommand:
    """Request to switch the service to ``new_members``.

    Carries a :class:`CommandId` like any client command so that engine- and
    application-level deduplication apply to it uniformly (admin retries and
    orphan re-proposal must not fork the configuration chain — the chain
    cannot fork anyway, since each epoch seals at the *first* reconfig in
    its log, but dedup avoids wasted epochs).
    """

    #: the effective-log cut is per slot: a reconfiguration owns its slot
    #: (engines ask the payload, see :mod:`repro.consensus.interface`).
    batchable: ClassVar[bool] = False

    cid: CommandId
    new_members: Membership
    size: int = 128

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Reconfig({self.cid}, ->{self.new_members})"


@dataclass(frozen=True, slots=True)
class ReconfigRequest:
    """Admin client -> replica: propose this reconfiguration, then reply.

    In simulation the admin plane calls
    :meth:`repro.core.reconfig.ReconfigurableReplica.request_reconfiguration`
    directly; over the live TCP transport the admin is a remote process, so
    the same request travels as an ordinary message. The contacted replica
    registers ``reply_to`` as the waiting client and answers with a
    :class:`repro.core.client.ClientReply` once the reconfiguration commits
    (the reply value names the new epoch), or with a ``Redirect`` if it has
    already retired from the cluster.
    """

    command: ReconfigCommand
    reply_to: NodeId
