"""The replicated director: the shard map as a state machine of its own.

The control plane is built by the paper's own recipe: the authoritative
state (the :class:`~repro.shard.shardmap.ShardMap` version chain plus a
table of in-flight admin *intents*) is a deterministic state machine
(:class:`MetaDirStateMachine`) replicated on its own reconfigurable
group — WAL-durable, reconfigurable, and lease-readable like any data
group. It is the only director: a map held by one process behind a lock
leaves a half-finished drain-and-cutover behind when that process dies
mid-``move`` — retire committed on the source, install never submitted,
map never swapped (DESIGN "Replicated control plane" keeps the note).

Admin operations run as a **crash-resumable intent protocol**:

1. ``dir_begin`` commits an *intent* record to the director log. The
   intent captures the full plan — ``[lo, hi)``, source, target and the
   planned map version — computed against the committed map, and intents
   are serialized (one in flight), so the plan stays valid until the
   intent is archived.
2. Any director replica's :class:`IntentDriver` executes the
   drain-and-cutover steps against the data groups. Every step's
   command identity is **derived from the intent id** (client
   ``"metadir-i<id>-r"`` / ``"-i"``, seq 1), so a successor replaying a
   dead leader's steps hits the groups' dedup tables and gets the
   *original* replies back: a re-run retire returns the same captured
   items, a re-run install merges nothing new. Resume and roll-forward
   are literally the same code path.
3. ``dir_complete`` commits the completion record, which swaps the map
   (version + 1) and archives the intent. Completion is idempotent by
   intent id, so racing drivers cannot double-install a range.

The driver normally runs only on the group's current leader; a follower
whose clock says the intent has been pending past the takeover bound
drives it too, which is what rolls an orphaned move forward after the
leader is SIGKILLed between steps.

Clients fetch the map with one request: every metadir replica answers
:class:`~repro.shard.messages.ShardMapRequest` on its ordinary replica
port (see :func:`install_director_endpoint`), serving its locally
executed copy of the map — stale by at most the replication lag, which
the version-gated client cache absorbs. Multi-endpoint failover lives in
:class:`~repro.shard.client.ShardClient`.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, Callable

from repro.core.statemachine import StateMachine
from repro.shard.messages import (
    DIRECTOR_ENDPOINT,
    ShardMapReply,
    ShardMapRequest,
)
from repro.shard.shardmap import GroupInfo, ShardError, ShardMap
from repro.types import Command, NodeId

#: archived intents kept in the state machine (and its snapshots).
DONE_LIMIT = 64

#: how often an :class:`IntentDriver` looks at its replica's intent
#: table, in seconds (the floor on a split's admin latency).
DRIVER_POLL = 0.05


def intent_client(intent_id: int, step: str) -> str:
    """The deterministic client identity for one step of one intent.

    This is the whole resumability trick: every driver that executes
    step ``step`` of intent ``intent_id`` — the leader that began it or
    the successor rolling it forward — submits under the same client
    name with seq 1, so the data group's dedup table returns the
    original reply instead of re-executing the command.
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
# The per-replica lookup endpoint
# ---------------------------------------------------------------------------


def install_director_endpoint(
    transport: Any,
    node: str,
    machine: Callable[[], MetaDirStateMachine | None],
) -> NodeId:
    """Answer map fetches from this replica's executed state.

    Registered as ``shard-director`` on the replica's own transport, so
    :func:`~repro.shard.client.fetch_shard_map` works against any
    metadir replica's address. Replies come from the *locally executed*
    map — stale by at most the replication lag; the client's
    version-gated adoption makes that safe (freshness degrades, routing
    correctness is guarded by the groups' own WrongShard checks). No
    reply until ``dir_init`` has executed here.
    """
    endpoint = NodeId(DIRECTOR_ENDPOINT)

    def handle(message: Any) -> None:
        payload = message.payload
        inner = machine()
        shard_map = None if inner is None else inner.shard_map
        if shard_map is None:
            return  # not initialised yet: silence, the client fails over
        if isinstance(payload, ShardMapRequest):
            transport.send(
                endpoint, message.sender, ShardMapReply(payload.cid, shard_map)
            )

    transport.register(endpoint, handle)
    return endpoint


# ---------------------------------------------------------------------------
# The intent driver
# ---------------------------------------------------------------------------


class IntentDriver(threading.Thread):
    """Rolls pending intents forward against the data groups.

    One per metadir replica process. Polls the locally executed intent
    table; drives when this replica leads the newest epoch, or when a
    pending intent has sat unexecuted past ``takeover`` seconds (the
    dead-leader case). Every action is idempotent — steps replay through
    the data groups' dedup tables and completion dedups by intent id —
    so two drivers racing after a fuzzy leadership hand-off is safe,
    merely wasteful.

    ``hold`` inserts a pause between the retire step and the install
    submit: zero in production, widened by the failover tests and the
    storm cell to make "killed between steps" a deterministic window.
    """

    def __init__(
        self,
        node: str,
        replica: Any,
        addresses: dict[str, tuple[str, int]],
        *,
        hold: float = 0.0,
        takeover: float = 1.5,
        request_timeout: float = 2.0,
    ):
        super().__init__(name=f"intent-driver-{node}", daemon=True)
        self.node = str(node)
        self.replica = replica
        self.addresses = dict(addresses)
        self.hold = hold
        self.takeover = takeover
        self.request_timeout = request_timeout
        self.driven = 0
        self._stop = threading.Event()
        self._pending_since: tuple[int, float] | None = None
        self._self_client: Any = None

    # -- lifecycle ----------------------------------------------------------

    def stop(self) -> None:
        self._stop.set()

    def run(self) -> None:  # pragma: no cover - exercised via live tests
        while not self._stop.wait(DRIVER_POLL):
            try:
                self._tick()
            except Exception as exc:  # noqa: BLE001 - retried next poll
                print(
                    f"[{self.node}] intent driver: "
                    f"{type(exc).__name__}: {exc}",
                    file=sys.stderr, flush=True,
                )

    # -- one poll -----------------------------------------------------------

    def _machine(self) -> MetaDirStateMachine | None:
        state = getattr(self.replica, "state", None)
        inner = getattr(state, "inner", None)
        return inner if isinstance(inner, MetaDirStateMachine) else None

    def _is_leader(self) -> bool:
        replica = self.replica
        runtime = replica.chain.get(replica.newest_epoch)
        engine = getattr(runtime, "engine", None)
        return bool(getattr(engine, "is_leader", False))

    def _tick(self) -> None:
        machine = self._machine()
        if machine is None:
            return
        intent = machine.active_intent
        if intent is None or machine.shard_map is None:
            self._pending_since = None
            return
        now = time.monotonic()
        if self._pending_since is None or self._pending_since[0] != intent["id"]:
            self._pending_since = (intent["id"], now)
        aged = now - self._pending_since[1] >= self.takeover
        if not self._is_leader() and not aged:
            return
        self._drive(dict(intent), machine.shard_map)

    # -- the drain-and-cutover steps ----------------------------------------

    def _drive(self, intent: dict[str, Any], shard_map: ShardMap) -> None:
        from repro.net.client import LiveClient

        intent_id = int(intent["id"])
        lo, hi = int(intent["lo"]), int(intent["hi"])
        version = int(intent["planned_version"])
        source = shard_map.group_info(intent["source"])
        target = shard_map.group_info(intent["target"])
        self.driven += 1

        if intent.get("claimed_by") != self.node:
            self._submit_self("dir_claim", (intent_id, self.node))

        # Step 1 — retire at the source. The deterministic client name
        # means a replay (us, or a successor after our death) gets the
        # original capture back from the dedup table.
        with LiveClient(
            intent_client(intent_id, "r"),
            source.addresses,
            view=source.members,
            request_timeout=self.request_timeout,
        ) as retire_client:
            reply = retire_client.submit(
                "shard_retire", (lo, hi, version, target.name), deadline=15.0
            )
        capture = reply.value
        if not isinstance(capture, dict) or "items" not in capture:
            self._submit_self(
                "dir_abort",
                (intent_id, f"retire at {source.name!r} failed: {capture!r}"),
            )
            return
        self._submit_self("dir_step", (intent_id, "retired"))

        # The crash window under test: a SIGKILL landing in this pause
        # leaves the range retired but not installed — exactly the state
        # a successor driver must roll forward from.
        if self.hold > 0:
            if self._stop.wait(self.hold):
                return

        # Step 2 — install at the target, same dedup discipline.
        with LiveClient(
            intent_client(intent_id, "i"),
            target.addresses,
            view=target.members,
            request_timeout=self.request_timeout,
        ) as install_client:
            installed = install_client.submit(
                "shard_install",
                (lo, hi, version, capture["items"]),
                deadline=15.0,
            )
        if not isinstance(installed.value, dict):
            self._submit_self(
                "dir_abort",
                (intent_id,
                 f"install at {target.name!r} failed: {installed.value!r}"),
            )
            return

        # Step 3 — the completion record swaps the map and archives
        # the intent, so nothing is pending to record a step on after it.
        self._submit_self("dir_complete", (intent_id,))

    def _submit_self(self, op: str, args: tuple[Any, ...]) -> Any:
        """Submit a director-log command through our own group."""
        from repro.net.client import LiveClient

        if self._self_client is None:
            # The pid suffix keeps a restarted driver's sequence numbers
            # from colliding with its previous incarnation's in the
            # group's dedup table (semantic idempotence by intent id is
            # what actually protects the protocol).
            self._self_client = LiveClient(
                f"mdrv-{self.node}-{os.getpid()}",
                self.addresses,
                view=list(self.addresses),
                request_timeout=self.request_timeout,
            )
        return self._self_client.submit(op, args, deadline=10.0).value


# ---------------------------------------------------------------------------
# The admin handle
# ---------------------------------------------------------------------------


class ReplicatedShardDirector:
    """Client-side handle over a metadir group (the admin surface).

    ``shard_map`` / ``split`` / ``move`` / ``publish_group`` are what
    :class:`~repro.shard.cluster.ShardedCluster` drives. Admin calls
    commit the intent and then *wait* for a driver to complete it — the
    work itself happens inside the director replicas, which is what
    makes it survive the death of whoever asked.
    """

    def __init__(
        self,
        addresses: dict[str, tuple[str, int]],
        *,
        name: str = "metadir-admin",
        view: list[str] | None = None,
        request_timeout: float = 2.0,
    ):
        from repro.net.client import LiveClient

        self.addresses = dict(addresses)
        self._client = LiveClient(
            f"{name}-{os.getpid()}",
            self.addresses,
            view=view if view is not None else list(self.addresses),
            request_timeout=request_timeout,
        )

    # -- map access ---------------------------------------------------------

    @property
    def shard_map(self) -> ShardMap:
        value = self._submit("dir_map", ())
        if not isinstance(value, ShardMap):
            raise ShardError(f"director has no map yet: {value!r}")
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
        return self.shard_map

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
        return self.shard_map

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._client.close()

    def __enter__(self) -> "ReplicatedShardDirector":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _submit(
        self, op: str, args: tuple[Any, ...], deadline: float = 10.0
    ) -> Any:
        return self._client.submit(op, args, deadline=deadline).value
