"""The replicated director: the shard map as a state machine of its own.

The control plane is built by the paper's own recipe: the authoritative
state (the :class:`~repro.shard.shardmap.ShardMap` version chain plus a
table of in-flight admin *intents*) is a deterministic state machine
(:class:`MetaDirStateMachine`) replicated on its own reconfigurable
group — WAL-durable, reconfigurable, and lease-readable like any data
group. An admin operation is a **crash-resumable intent**: ``dir_begin``
commits the plan (``[lo, hi)``, source, target, planned map version;
one intent in flight), an :class:`IntentDriver` runs the retire and the
install against the data groups under identities derived from the intent
id (:func:`intent_client`), so a successor's replay gets the original
replies from the groups' dedup tables, and ``dir_complete`` swaps the map
once, idempotently by intent id. Resume and roll-forward are the same
code path (DESIGN "Replicated control plane" has the whole protocol).

The driver is a process on its replica's runtime, stepped by the
replica's own execution of ``dir_*`` commands, so it runs the same in
the simulator and live. It drives on the group's current leader; a
follower whose takeover timer fires with the intent still pending drives
it too, which is what rolls an orphaned move forward after the leader is
SIGKILLed between steps.

Everything outside the group reads the map one way:
:class:`ReplicatedShardDirector`, the handle admin tools and every
:class:`~repro.shard.client.ShardClient` hold, submits ``dir_map`` like
any other command. A read is therefore linearizable, and it needs a
majority of the group, as a map change does.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Iterator

from repro.core.client import ClientCore, ClientReply, Outstanding, Requester
from repro.core.statemachine import StateMachine
from repro.shard.shardmap import GroupInfo, ShardError, ShardMap
from repro.sim.events import Timer
from repro.types import ClientId, Command, NodeId

#: archived intents kept in the state machine (and its snapshots).
DONE_LIMIT = 64

#: seconds an intent step waits for its reply before it moves on.
REQUEST_TIMEOUT = 0.5

#: numbers the admin handles of this process: each submits under an
#: identity of its own, or a second handle's first command would be
#: answered from the group's dedup table with the first handle's reply.
_HANDLES = itertools.count(1)


def intent_client(intent_id: int, step: str) -> str:
    """The deterministic client identity for one step of one intent.

    This is the whole resumability trick: every driver that executes
    step ``step`` of intent ``intent_id`` — the leader that began it or
    the successor rolling it forward — submits under the same client
    name with seq 1, so the data group's dedup table returns the
    original reply instead of re-executing the command. The director's
    own records ride such lanes too, so a restarted driver reuses no seq.
    """
    return f"metadir-i{intent_id}-{step}"


class MetaDirStateMachine(StateMachine):
    """Replicated director state: map version chain + intent table."""

    #: director reads ride the lease/follower fast paths when the group
    #: is served with ``--read-mode``.
    READ_ONLY_OPS = frozenset({"dir_map", "dir_history", "dir_status"})

    def __init__(self) -> None:
        #: the committed map; None until ``dir_init`` executes.
        self.shard_map: ShardMap | None = None
        #: the single in-flight intent (admin ops serialize), or None.
        self.active_intent: dict[str, Any] | None = None
        #: archived intents, newest last, bounded by DONE_LIMIT.
        self.done: list[dict[str, Any]] = []
        #: one entry per map version, in version order — the version
        #: chain the storm cell checks for linearity and gaplessness.
        self.chain: list[dict[str, Any]] = []
        self.next_intent_id = 1

    # -- apply --------------------------------------------------------------

    def apply(self, command: Command) -> Any:
        op, args = command.op, command.args
        handler = getattr(self, f"_{op}", None)
        if op.startswith("dir_") and handler is not None:
            return handler(*args)
        raise ShardError(f"unknown metadir operation {op!r}")

    # -- reads --------------------------------------------------------------

    def _dir_map(self) -> ShardMap | None:
        return self.shard_map

    def _dir_history(self) -> tuple[dict[str, Any], ...]:
        return tuple(self.chain)

    def _dir_status(self, intent_id: int) -> dict[str, Any]:
        intent_id = int(intent_id)
        if (
            self.active_intent is not None
            and self.active_intent["id"] == intent_id
        ):
            return dict(self.active_intent)
        for intent in reversed(self.done):
            if intent["id"] == intent_id:
                return dict(intent)
        return {"id": intent_id, "status": "unknown"}

    # -- map lifecycle ------------------------------------------------------

    def _dir_init(self, shard_map: ShardMap) -> dict[str, Any]:
        """Install the founding map (idempotent: first init wins)."""
        if self.shard_map is not None:
            return {"ok": True, "version": self.shard_map.version,
                    "already": True}
        shard_map.validate()
        self.shard_map = shard_map
        self._chain_entry("init", f"{len(shard_map.assignments)} ranges",
                          shard_map.version)
        return {"ok": True, "version": shard_map.version, "already": False}

    def _dir_publish(self, info: GroupInfo) -> dict[str, Any]:
        """Publish a group's new membership (single-step, no intent)."""
        if self.shard_map is None:
            return {"ok": False, "error": "no map installed"}
        try:
            self.shard_map = self.shard_map.with_group(info)
        except ShardError as exc:
            return {"ok": False, "error": str(exc)}
        self._chain_entry(
            "publish", f"{info.name} -> {list(info.members)}",
            self.shard_map.version,
        )
        return {"ok": True, "version": self.shard_map.version}

    # -- the intent protocol ------------------------------------------------

    def _dir_begin(self, kind: str, spec: dict[str, Any]) -> dict[str, Any]:
        """Commit an intent: plan the cutover against the committed map.

        Intents serialize — a second begin while one is in flight is
        refused, which is what keeps every plan valid until completion
        (only completions move assignments, and only publishes touch
        group infos).
        """
        if self.shard_map is None:
            return {"ok": False, "error": "no map installed"}
        if self.active_intent is not None:
            return {"ok": False, "error": "an intent is already in flight",
                    "active": dict(self.active_intent)}
        try:
            lo, hi, source, target = self._plan(str(kind), spec)
        except ShardError as exc:
            return {"ok": False, "error": str(exc)}
        intent = {
            "id": self.next_intent_id,
            "kind": str(kind),
            "lo": lo,
            "hi": hi,
            "source": source,
            "target": target,
            # The version stamped into retire/install commands. The map
            # may advance past it via publishes before completion; the
            # committed chain still increments by exactly one per swap.
            "planned_version": self.shard_map.version + 1,
            "status": "pending",
            "claimed_by": "",
            "steps": [],
        }
        self.next_intent_id += 1
        self.active_intent = intent
        return {"ok": True, "intent": dict(intent)}

    def _plan(self, kind: str, spec: dict[str, Any]) -> tuple[int, int, str, str]:
        """Resolve an admin request to a concrete (lo, hi, source, target)."""
        assert self.shard_map is not None
        shard_map = self.shard_map
        if kind == "move":
            lo, hi = int(spec["lo"]), int(spec["hi"])
            target = str(spec["target"])
            source = shard_map.assignment_at(lo).group
            if source == target:
                raise ShardError(
                    f"range [{lo}, {hi}) already owned by {target!r}"
                )
            # Validates bounds/containment before any command is sent.
            shard_map.with_move(lo, hi, target)
            return lo, hi, source, target
        if kind == "split":
            group = str(spec["group"])
            widest = shard_map.widest_range_of(group)
            at = spec.get("at")
            point = widest.midpoint if at is None else int(at)
            if not widest.contains(point) or point == widest.lo:
                raise ShardError(
                    f"split point {point} not inside {widest} "
                    "(exclusive of lo)"
                )
            target = spec.get("target")
            if target is None:
                owned = {info.name: 0 for info in shard_map.groups}
                for assignment in shard_map.assignments:
                    owned[assignment.group] += assignment.range.width
                target = min(
                    (name for name in owned if name != group),
                    key=lambda name: (owned[name], name),
                )
            return self._plan(
                "move", {"lo": point, "hi": widest.hi, "target": str(target)}
            )
        if kind == "merge":
            # Merge-prep: hand the assignment containing ``at`` to its
            # left neighbour's owner; with_move's coalescing makes the
            # two ranges one.
            at = int(spec["at"])
            assignment = shard_map.assignment_at(at)
            if assignment.range.lo == 0:
                raise ShardError("leftmost range has no left neighbour")
            neighbour = shard_map.assignment_at(assignment.range.lo - 1)
            return self._plan(
                "move",
                {
                    "lo": assignment.range.lo,
                    "hi": assignment.range.hi,
                    "target": neighbour.group,
                },
            )
        raise ShardError(f"unknown intent kind {kind!r}")

    def _dir_claim(self, intent_id: int, node: str) -> dict[str, Any]:
        intent = self._pending(intent_id)
        if intent is None:
            return self._dir_status(intent_id)
        intent["claimed_by"] = str(node)
        return dict(intent)

    def _dir_step(self, intent_id: int, step: str) -> dict[str, Any]:
        intent = self._pending(intent_id)
        if intent is None:
            return self._dir_status(intent_id)
        if step not in intent["steps"]:
            intent["steps"].append(str(step))
        return dict(intent)

    def _dir_complete(self, intent_id: int) -> dict[str, Any]:
        """Swap the map and archive the intent. Idempotent by id."""
        intent = self._pending(intent_id)
        if intent is None:
            # Already archived (a racing driver got here first) or never
            # existed; either way the answer is the archived status.
            return self._dir_status(intent_id)
        assert self.shard_map is not None
        try:
            self.shard_map = self.shard_map.with_move(
                intent["lo"], intent["hi"], intent["target"]
            )
        except ShardError as exc:
            # The plan no longer applies (cannot happen while intents
            # serialize, but a poisoned log slot must not wedge us).
            return self._archive(intent, "aborted", str(exc))
        self._chain_entry(
            intent["kind"],
            f"[{intent['lo']}, {intent['hi']}) "
            f"{intent['source']} -> {intent['target']}",
            self.shard_map.version,
        )
        return self._archive(intent, "done", "")

    def _dir_abort(self, intent_id: int, reason: str) -> dict[str, Any]:
        intent = self._pending(intent_id)
        if intent is None:
            return self._dir_status(intent_id)
        return self._archive(intent, "aborted", str(reason))

    def _pending(self, intent_id: int) -> dict[str, Any] | None:
        intent = self.active_intent
        if intent is not None and intent["id"] == int(intent_id):
            return intent
        return None

    def _archive(
        self, intent: dict[str, Any], status: str, detail: str
    ) -> dict[str, Any]:
        intent["status"] = status
        intent["detail"] = detail
        self.active_intent = None
        self.done.append(intent)
        del self.done[:-DONE_LIMIT]
        return dict(intent)

    def _chain_entry(self, kind: str, detail: str, version: int) -> None:
        self.chain.append(
            {"version": int(version), "kind": kind, "detail": detail}
        )

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> Any:
        return {
            "map": self.shard_map,
            "intent": (
                None if self.active_intent is None
                else dict(self.active_intent)
            ),
            "done": [dict(i) for i in self.done],
            "chain": [dict(e) for e in self.chain],
            "next_id": self.next_intent_id,
        }

    def restore(self, snapshot: Any) -> None:
        self.shard_map = snapshot["map"]
        intent = snapshot["intent"]
        self.active_intent = None if intent is None else dict(intent)
        self.done = [dict(i) for i in snapshot["done"]]
        self.chain = [dict(e) for e in snapshot["chain"]]
        self.next_intent_id = int(snapshot["next_id"])

    def snapshot_bytes(self) -> int:
        ranges = 0 if self.shard_map is None else len(self.shard_map.assignments)
        return 256 + 48 * ranges + 128 * (len(self.done) + 1)


# ---------------------------------------------------------------------------
# The intent driver
# ---------------------------------------------------------------------------


class IntentDriver(Requester):
    """Rolls pending intents forward against the data groups.

    One per metadir replica: a process on its runtime that crashes and
    restarts with it (one of its ``companions``). It steps when a
    ``dir_*`` command executes at its replica and when its takeover timer
    fires, and drives while its replica leads the newest epoch or once
    the pending intent outlived ``takeover`` seconds (the dead-leader
    case). Every step is idempotent, so racing drivers are safe, merely
    wasteful. ``hold`` pauses between the retire step and the install:
    zero in production, widened by the failover tests and the storm cell
    to make "killed between steps" a deterministic window.
    """

    def __init__(self, replica: Any, *, hold: float = 0.0, takeover: float = 1.5):
        self._rng = replica.sim.rng.fork(f"intents/{replica.node}")
        super().__init__(replica.sim, NodeId(f"{replica.node}-driver"),
                         ClientCore((), self._rng), REQUEST_TIMEOUT)
        self.replica = replica
        self.hold = hold
        self.takeover = takeover
        replica.commit_listener = self._committed
        replica.companions.append(self)
        #: the intent driven, the rest of its steps and the hold's timer.
        self._driving: int | None = None
        self._drive: Iterator[Any] | None = None
        self._hold: Timer | None = None
        #: the pending intent the takeover timer runs for.
        self._watching: int | None = None
        #: the addresses of the group the step in flight goes to.
        self._book: dict[str, Any] = {}

    def machine(self) -> MetaDirStateMachine | None:
        """The director state as executed here (None before any)."""
        state = self.replica.state
        return None if state is None else state.inner

    # -- when to step -------------------------------------------------------

    def on_start(self) -> None:
        self._step()

    def on_restart(self) -> None:
        # The drive and the takeover clock were volatile; the intent
        # table survived, and the lanes make a resumed drive a replay.
        self._abandon()
        self._watching = None
        self._step()

    def _committed(self, now: float, payload: Any, *_: Any) -> None:
        if isinstance(payload, Command) and payload.op.startswith("dir_"):
            self.set_timer(0.0, self._step, label="intent-step")

    def _step(self, overdue: bool = False) -> None:
        machine = self.machine()
        intent = None if machine is None else machine.active_intent
        iid = None if intent is None else intent["id"]
        if self._driving not in (None, iid):
            self._abandon()  # archived under us: a racing driver finished
        if iid != self._watching:
            self._watching = iid
            if iid is not None:
                self.set_timer(self.takeover, lambda: self._step(iid == self._watching),
                               label="intent-takeover")
        if iid is not None and self._driving is None and (
            overdue or self.replica.leads_newest_epoch
        ):
            self._driving = iid
            self._drive = self._steps(dict(intent), machine.shard_map)
            self._advance()

    # -- the drain-and-cutover steps ----------------------------------------

    def _steps(self, intent: dict[str, Any], shard_map: ShardMap) -> Iterator[Any]:
        """Yields ``(group, step, op, args)`` per request (group None: the
        director's own) and gets its reply's value back, or the hold."""
        iid = int(intent["id"])
        lo, hi = int(intent["lo"]), int(intent["hi"])
        version = int(intent["planned_version"])
        source = shard_map.group_info(intent["source"])
        target = shard_map.group_info(intent["target"])
        node = str(self.replica.node)
        if intent.get("claimed_by") != node:
            yield None, f"claim-{node}", "dir_claim", (iid, node)

        # Step 1 — retire at the source. The deterministic lane means a
        # replay (us, or a successor after our death) gets the original
        # capture back from the dedup table.
        capture = yield source, "r", "shard_retire", (lo, hi, version, target.name)
        if not isinstance(capture, dict) or "items" not in capture:
            yield None, "abort", "dir_abort", (
                iid, f"retire at {source.name!r} failed: {capture!r}")
            return
        yield None, "retired", "dir_step", (iid, "retired")

        # The crash window under test: a crash landing in this pause
        # leaves the range retired but not installed — exactly the state
        # a successor driver must roll forward from.
        yield self.hold

        # Step 2 — install at the target, same dedup discipline.
        installed = yield target, "i", "shard_install", (
            lo, hi, version, capture["items"])
        if not isinstance(installed, dict):
            yield None, "abort", "dir_abort", (
                iid, f"install at {target.name!r} failed: {installed!r}")
            return
        # Step 3 — the completion record swaps the map and archives the
        # intent, so nothing is pending to record a step on after it.
        yield None, "complete", "dir_complete", (iid,)

    def _advance(self, value: Any = None) -> None:
        """Run the drive to its next request; the reply runs it again."""
        try:
            request = self._drive.send(value)
        except StopIteration:
            return  # the archiving record executes here, and steps us
        if not isinstance(request, tuple):
            self._hold = self.set_timer(request, self._advance, label="intent-hold")
            return
        group, step, op, args = request
        if group is None:  # a retired replica redirects to the newest members
            view, self._book = (self.replica.node,), {}
        else:
            view, self._book = group.members, group.addresses
        self.core = ClientCore(view, self._rng, reachable=self._book or None)
        self.core.use_lanes([ClientId(intent_client(self._driving, step))])
        self._send(self.core.issue(lambda cid: Command(cid, op, args), self.now))

    def _abandon(self) -> None:
        for timer in (*self._timeouts.values(), self._hold):
            if timer is not None:
                timer.cancel()
        self._timeouts.clear()
        self.core.outstanding.clear()
        self._driving = self._drive = self._hold = None

    # -- the retry chain's hooks --------------------------------------------

    def completed(self, entry: Outstanding, reply: ClientReply) -> None:
        self._advance(reply.value)

    def send(self, dest: NodeId, payload: Any, size: int | None = None) -> None:
        if not self._book:  # the director's own group: its names route
            super().send(dest, payload, size)
        elif dest in self._book and not self.crashed:  # else unreachable
            self.sim.network.send_to(self._book[dest], self.node, dest, payload, size)


# ---------------------------------------------------------------------------
# The admin handle
# ---------------------------------------------------------------------------


class ReplicatedShardDirector:
    """Client-side handle over a metadir group: the map read and the
    admin surface.

    :meth:`shard_map` is the one way anything outside the group reads the
    map (:class:`~repro.shard.cluster.ShardedCluster`, every
    :class:`~repro.shard.client.ShardClient`, ``repro shard-route``).
    ``split`` / ``move`` / ``publish_group`` are what the cluster drives:
    admin calls commit the intent and then *wait* for a driver to
    complete it — the work itself happens inside the director replicas,
    which is what makes it survive the death of whoever asked. Failover
    across the group's replicas is the :class:`~repro.net.client.LiveClient`
    route. One handle may be shared between threads: its client serves
    one call at a time, and a call's ``deadline`` covers its wait for
    the handle too.
    """

    def __init__(
        self, addresses: dict[str, tuple[str, int]], *, name: str = "metadir-admin"
    ):
        from repro.net.client import LiveClient

        self._client = LiveClient(f"{name}-{os.getpid()}-{next(_HANDLES)}", addresses)
        self._lock = threading.Lock()

    # -- map access ---------------------------------------------------------

    def shard_map(self, deadline: float = 10.0) -> ShardMap:
        """The committed map, read through the group's log.

        Raises :class:`~repro.net.client.LiveClientError` if no majority
        answers within ``deadline``, and :class:`ShardError` if the group
        has no map yet or answers with something that is not a valid one
        (the map crossed a process boundary, so it is checked here).
        """
        value = self._submit("dir_map", (), deadline=deadline)
        if value is None:
            raise ShardError("director has no map yet (dir_init has not run)")
        if not isinstance(value, ShardMap):
            raise ShardError(f"director answered a {type(value).__name__}, not a map")
        value.validate()
        return value

    def init_map(self, shard_map: ShardMap, deadline: float = 15.0) -> int:
        value = self._submit("dir_init", (shard_map,), deadline=deadline)
        if not isinstance(value, dict) or not value.get("ok"):
            raise ShardError(f"dir_init failed: {value!r}")
        return int(value["version"])

    def history(self) -> tuple[dict[str, Any], ...]:
        value = self._submit("dir_history", ())
        return tuple(value) if isinstance(value, (list, tuple)) else ()

    def status(self, intent_id: int) -> dict[str, Any]:
        value = self._submit("dir_status", (int(intent_id),))
        return value if isinstance(value, dict) else {"status": "unknown"}

    # -- admin operations ---------------------------------------------------

    def split(
        self,
        group: str,
        at: int | None = None,
        target: str | None = None,
        deadline: float = 30.0,
    ) -> ShardMap:
        spec: dict[str, Any] = {"group": str(group)}
        if at is not None:
            spec["at"] = int(at)
        if target is not None:
            spec["target"] = str(target)
        return self._admin("split", spec, deadline)

    def move(
        self, lo: int, hi: int, target: str, deadline: float = 30.0
    ) -> ShardMap:
        return self._admin(
            "move", {"lo": int(lo), "hi": int(hi), "target": str(target)},
            deadline,
        )

    def publish_group(self, info: GroupInfo, deadline: float = 15.0) -> ShardMap:
        value = self._submit("dir_publish", (info,), deadline=deadline)
        if not isinstance(value, dict) or not value.get("ok"):
            raise ShardError(f"publish of {info.name!r} failed: {value!r}")
        return self.shard_map()

    def begin(self, kind: str, spec: dict[str, Any]) -> dict[str, Any]:
        """Commit an intent without waiting for it (storm cells use this
        to race a kill against the in-flight move)."""
        value = self._submit("dir_begin", (str(kind), dict(spec)))
        if not isinstance(value, dict) or not value.get("ok"):
            detail = value.get("error") if isinstance(value, dict) else value
            raise ShardError(f"{kind} refused: {detail}")
        return value["intent"]

    def wait(self, intent_id: int, deadline: float = 30.0) -> dict[str, Any]:
        """Block until a driver archives the intent; raises on abort."""
        give_up_at = time.monotonic() + deadline
        while True:
            status = self.status(intent_id)
            if status.get("status") == "done":
                return status
            if status.get("status") == "aborted":
                raise ShardError(
                    f"intent {intent_id} aborted: {status.get('detail')}"
                )
            if time.monotonic() >= give_up_at:
                raise ShardError(
                    f"intent {intent_id} not completed in {deadline}s "
                    f"(status: {status.get('status')!r})"
                )
            time.sleep(0.05)

    def _admin(
        self, kind: str, spec: dict[str, Any], deadline: float
    ) -> ShardMap:
        started = time.monotonic()
        intent = self.begin(kind, spec)
        remaining = max(1.0, deadline - (time.monotonic() - started))
        self.wait(int(intent["id"]), deadline=remaining)
        return self.shard_map()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._client.close()

    def __enter__(self) -> "ReplicatedShardDirector":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _submit(
        self, op: str, args: tuple[Any, ...], deadline: float = 10.0
    ) -> Any:
        from repro.net.client import LiveClientError

        started = time.monotonic()
        if not self._lock.acquire(timeout=deadline):
            raise LiveClientError(
                f"{op} not sent in {deadline}s: the handle stayed busy"
            )
        try:
            remaining = deadline - (time.monotonic() - started)
            return self._client.submit(op, args, deadline=remaining).value
        finally:
            self._lock.release()
