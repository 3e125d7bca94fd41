"""Structural invariants over replica internals.

The linearizability checker validates the service from the outside; these
checks validate the composition from the inside. They read replica state
directly (simulation superpower) and raise :class:`VerificationError` on
the first violation.

* **Virtual-log prefix consistency** — committed entries at any two
  replicas agree position-by-position (aligned on virtual index; joiners
  start mid-log, so their sequence is a contiguous slice, not a prefix).
* **Chain agreement** — every epoch known to several replicas has the same
  membership everywhere; sealed epochs have the same cut slot.
* **Reply consistency** — any command acknowledged anywhere has exactly
  one (value, virtual index) across the cluster; exactly-once made
  visible.
* **Client order** — each client's commands first execute in increasing
  seq order: the dedup table's one-command-in-flight rule.

One check reads the client history and the fault plan instead of
replica state, because it is about progress, not safety:

* **Liveness** — while the plan leaves a majority of the current
  configuration up and mutually connected, some operation completes at
  least every ``bound`` seconds (:func:`check_liveness`).

And one reads replica state at the end of a settled run:

* **Convergence** — every replica that is up is either executing in the
  newest configuration, as a member, or knows it is retired
  (:func:`check_convergence`): nobody is left behind in a closed epoch.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Iterable

from repro.core.reconfig import ReconfigurableReplica
from repro.errors import VerificationError
from repro.faults import CrashAt, LinkPolicy, RestartAt
from repro.types import Command
from repro.verify.histories import History
from repro.workload.schedules import ReconfigStep


def check_prefix_consistency(replicas: Iterable[ReconfigurableReplica]) -> int:
    """Verify all replicas agree on every virtual-log position they share.

    Returns the number of distinct positions covered.
    """
    canon: dict[int, tuple[str, int]] = {}
    owner: dict[int, str] = {}
    for replica in replicas:
        for payload, epoch, vindex in replica.committed:
            entry = (repr(payload), epoch)
            if vindex in canon:
                if canon[vindex] != entry:
                    raise VerificationError(
                        f"virtual-log divergence at index {vindex}: "
                        f"{owner[vindex]} has {canon[vindex]}, "
                        f"{replica.node} has {entry}"
                    )
            else:
                canon[vindex] = entry
                owner[vindex] = str(replica.node)
    # Each replica's own sequence must be strictly increasing. It is
    # normally contiguous too, but a replica that adopted a later boundary
    # snapshot (joiners; the skipped-epoch jump) legitimately has one
    # upward gap per adoption — never a repeat or regression.
    for replica in replicas:
        indices = [vindex for _, _, vindex in replica.committed]
        for a, b in zip(indices, indices[1:]):
            if b <= a:
                raise VerificationError(
                    f"{replica.node} executed virtual indices out of order: "
                    f"{a} then {b}"
                )
    return len(canon)


def check_chain_agreement(replicas: Iterable[ReconfigurableReplica]) -> int:
    """Verify configuration-chain agreement; returns epochs covered."""
    members_by_epoch: dict[int, tuple[str, str]] = {}
    cut_by_epoch: dict[int, tuple[int, str]] = {}
    for replica in replicas:
        for epoch, runtime in replica.chain.items():
            membership = str(runtime.config.members)
            known = members_by_epoch.get(epoch)
            if known is not None and known[0] != membership:
                raise VerificationError(
                    f"epoch {epoch} membership disagreement: "
                    f"{known[1]} has {known[0]}, {replica.node} has {membership}"
                )
            members_by_epoch.setdefault(epoch, (membership, str(replica.node)))
            if runtime.sealed:
                cut = cut_by_epoch.get(epoch)
                if cut is not None and cut[0] != runtime.cut_slot:
                    raise VerificationError(
                        f"epoch {epoch} cut disagreement: {cut[1]} cut at "
                        f"{cut[0]}, {replica.node} cut at {runtime.cut_slot}"
                    )
                cut_by_epoch.setdefault(epoch, (runtime.cut_slot, str(replica.node)))
    return len(members_by_epoch)


def check_reply_consistency(replicas: Iterable[ReconfigurableReplica]) -> int:
    """Verify acknowledged commands have one value/position cluster-wide."""
    canon: dict[object, tuple[object, int, str]] = {}
    for replica in replicas:
        for cid, (value, _epoch, vindex) in replica._replies.items():
            known = canon.get(cid)
            if known is not None:
                if (known[0], known[1]) != (value, vindex):
                    raise VerificationError(
                        f"command {cid} answered differently: "
                        f"{known[2]} said {known[0]!r}@{known[1]}, "
                        f"{replica.node} said {value!r}@{vindex}"
                    )
            else:
                canon[cid] = (value, vindex, str(replica.node))
    return len(canon)


def check_no_duplicate_effects(replicas: Iterable[ReconfigurableReplica]) -> int:
    """Verify no replica *applied* a client command twice with effect.

    Duplicate log entries are legal (retries, orphan re-proposal); the
    dedup layer must have suppressed every re-execution. We reconstruct the
    per-replica applied sets and confirm each command id executes at most
    once before its duplicate appears.
    """
    checked = 0
    for replica in replicas:
        first_seen: dict[object, int] = {}
        for payload, _epoch, vindex in replica.committed:
            if isinstance(payload, Command):
                checked += 1
                if payload.cid in first_seen:
                    # A duplicate entry: allowed, but the dedup layer must
                    # report it as suppressed, which we can observe in the
                    # state machine statistics.
                    state = replica.state
                    if state is not None and state.duplicates_suppressed == 0:
                        raise VerificationError(
                            f"{replica.node} saw duplicate entry for "
                            f"{payload.cid} but suppressed nothing"
                        )
                else:
                    first_seen[payload.cid] = vindex
    return checked


def check_client_order(replicas: Iterable[ReconfigurableReplica]) -> int:
    """Verify each client's first executions come in increasing seq order.

    A first execution after a higher seq of its client was answered
    ``None`` by the dedup table and never applied. Walks the virtual log
    merged over all replicas (a joiner's slice alone cannot tell a late
    duplicate from a first execution); returns the commands checked.
    """
    log: dict[int, Command] = {}
    for replica in replicas:
        for payload, _epoch, vindex in replica.committed:
            if isinstance(payload, Command):
                log[vindex] = payload
    newest: dict[object, int] = {}
    executed: set[object] = set()
    for vindex in sorted(log):
        cid = log[vindex].cid
        if cid in executed:
            continue
        executed.add(cid)
        if cid.seq < newest.get(cid.client, 0):
            raise VerificationError(
                f"{cid} first executed at virtual index {vindex}, after seq "
                f"{newest[cid.client]} of its client: never applied"
            )
        newest[cid.client] = cid.seq
    return len(executed)


def check_convergence(replicas: Iterable[ReconfigurableReplica]) -> int:
    """Every replica that is up has caught up with the newest configuration
    any replica knows: a member executes in it, anyone else knows it is
    retired. Meaningful once the run has settled; returns how many
    replicas were checked."""
    live = [r for r in replicas if not r.crashed]
    configs = [r.newest_config for r in live if r.newest_config is not None]
    if not configs:
        return 0
    newest = max(configs, key=lambda config: config.epoch)
    for replica in live:
        if replica.node in newest.members:
            runtime = replica.epoch_runtime(newest.epoch)
            if replica.exec_epoch < newest.epoch or not (
                runtime is not None and runtime.start_state_ready
            ):
                raise VerificationError(
                    f"{replica.node} is a member of epoch {newest.epoch} but "
                    f"still executes epoch {replica.exec_epoch}"
                )
        elif not replica.is_retired:
            raise VerificationError(
                f"{replica.node} left epoch {newest.epoch}'s configuration but "
                f"does not know it is retired (it knows epoch {replica.newest_epoch})"
            )
    return len(live)


def run_all_invariants(replicas: Iterable[ReconfigurableReplica]) -> dict[str, int]:
    """Run every structural invariant; returns coverage counters."""
    replica_list = [r for r in replicas]
    return {
        "positions": check_prefix_consistency(replica_list),
        "epochs": check_chain_agreement(replica_list),
        "replies": check_reply_consistency(replica_list),
        "commands": check_no_duplicate_effects(replica_list),
        "client_order": check_client_order(replica_list),
    }


def check_liveness(
    history: History, plan: Any, start: float, end: float, bound: float
) -> float:
    """Verify the service made progress whenever the plan let it.

    ``plan`` has ``initial`` members, reconfiguration ``steps`` and a
    failure ``schedule`` (a :class:`~repro.net.storm.StormPlan`). The
    current configuration is the initial one, then each step's members
    from the step's time on; link rules are replayed through a
    :class:`~repro.faults.LinkPolicy`, so "connected" means what both
    runtimes enforce (delay and loss slow a link, they do not cut it). A
    stretch of ``[start, end]`` with no completed operation fails the
    check when more than ``bound`` seconds of it fall while a majority of
    the current configuration is up and mutually connected. Returns the
    longest such overlap.
    """
    policy, down, members = LinkPolicy(), set(), tuple(plan.initial)

    def healthy() -> bool:
        up = [n for n in members if n not in down]
        return any(
            all(
                not (policy.blocks(a, b) or policy.blocks(b, a))
                for a, b in combinations(group, 2)
            )
            for group in combinations(up, len(members) // 2 + 1)
        )

    # The plan's events cut the run into stretches with one verdict each.
    stretches: list[tuple[float, float]] = []
    since = start if healthy() else None
    for event in sorted([*plan.schedule.actions, *plan.steps], key=lambda e: e.time):
        if isinstance(event, ReconfigStep):
            members = tuple(event.members)
        elif isinstance(event, CrashAt):
            down.add(str(event.node))
        elif isinstance(event, RestartAt):
            down.discard(str(event.node))
        else:
            policy.apply(event)
        if not healthy():
            if since is not None:
                stretches.append((since, event.time))
            since = None
        elif since is None:
            since = event.time
    if since is not None:
        stretches.append((since, end))
    completions = sorted(
        op.returned_at
        for op in history.operations
        if op.returned_at is not None and start <= op.returned_at <= end
    )
    longest = 0.0
    for a, b in zip([start, *completions], [*completions, end]):
        for since, until in stretches:
            stalled = min(b, until) - max(a, since)
            longest = max(longest, stalled)
            if stalled > bound:
                raise VerificationError(
                    f"no operation completed from {max(a, since):.3f}s to "
                    f"{min(b, until):.3f}s ({stalled:.3f}s > {bound}s) while "
                    "a majority of the current configuration was up and "
                    "connected"
                )
    return longest
